package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildMvdbd compiles the binary once per test run into a temp dir.
func buildMvdbd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mvdbd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitReady polls /readyz until the server answers 200 or the deadline hits.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		res, err := http.Get(base + "/readyz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestGracefulSIGTERM boots the real binary on a small dataset, verifies it
// serves, sends SIGTERM, and asserts a clean (exit 0) drain.
func TestGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	bin := buildMvdbd(t)
	addr := freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-authors", "120", "-query-timeout", "5s", "-max-inflight", "8")
	var logs strings.Builder
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()
	defer func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	}()

	base := "http://" + addr
	waitReady(t, base)

	// The service answers a real query before shutdown.
	res, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query": "Q(a) :- Advisor(104,a)"}`))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("query: code = %d body %s", res.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("SIGTERM exit: %v (want exit 0)\nlogs:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit after SIGTERM\nlogs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "clean exit") {
		t.Errorf("missing clean-exit log line:\n%s", logs.String())
	}
}

// TestFlagPropagation verifies the degradation flags reach the handler: a
// one-nanosecond query timeout turns every query into a structured 408.
func TestFlagPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	bin := buildMvdbd(t)
	addr := freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-authors", "120", "-query-timeout", "1ns")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	base := "http://" + addr
	waitReady(t, base)
	res, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query": "Q(a) :- Advisor(104,a)"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestTimeout {
		t.Errorf("1ns timeout: code = %d body %s", res.StatusCode, body)
	}
	if !strings.Contains(string(body), `"reason"`) || !strings.Contains(string(body), "timeout") {
		t.Errorf("missing structured reason: %s", body)
	}
	_ = fmt.Sprint() // keep fmt for future debugging output
}

// TestReorderFlagRejected: dynamic variable reordering is gone, so its flag
// is unknown and the binary refuses to start rather than ignore it.
func TestReorderFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary")
	}
	bin := buildMvdbd(t)
	out, err := exec.Command(bin, "-addr", freePort(t), "-authors", "120", "-reorder", "once").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-reorder once: err %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -reorder") {
		t.Fatalf("-reorder once: no flag error in output:\n%s", out)
	}
}
