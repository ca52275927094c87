package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one mvdbd process on a loopback port.
type child struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan error
}

// bootTimeout bounds one boot (generation + translation + compile, or
// snapshot load + WAL replay).
const bootTimeout = 60 * time.Second

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild execs mvdbd with the given flags and returns once /readyz
// answers 200, with the time from exec to that answer.
func startChild(bin, logPath string, args ...string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &child{
		base: "http://" + addr,
		log:  lf,
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = lf, lf
	// Should the benchmark itself die, the kernel kills the child too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, err
	}
	go func() { c.done <- c.cmd.Wait() }()
	deadline := t0.Add(bootTimeout)
	for {
		select {
		case err := <-c.done:
			c.done <- err
			c.closeLog()
			return nil, 0, fmt.Errorf("mvdbd exited during boot (%v); log: %s", err, tail(logPath))
		default:
		}
		resp, err := c.client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, 0, fmt.Errorf("mvdbd not ready after %v; log: %s", bootTimeout, tail(logPath))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *child) closeLog() {
	c.client.CloseIdleConnections()
	c.log.Close()
}

// kill stops the process with SIGKILL — a crash — and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
	c.closeLog()
}

// stop sends SIGTERM (drain, WAL flush, final snapshot) and waits for a
// clean exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	var err error
	select {
	case err = <-c.done:
	case <-time.After(bootTimeout):
		c.cmd.Process.Kill()
		err = fmt.Errorf("mvdbd did not exit after SIGTERM")
		<-c.done
	}
	c.closeLog()
	return err
}

// peakRSSMB reads the process's VmHWM.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// post sends one JSON POST and reads the whole body. The error covers
// transport failures and non-200 answers alike.
func (c *child) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func queryBody(q string) []byte {
	b, _ := json.Marshal(map[string]string{"query": q}) // a string map always encodes
	return b
}

func (c *child) query(q string) ([]byte, error) { return c.post("/query", queryBody(q)) }

func (c *child) update(batch []mutation) error {
	b, err := json.Marshal(map[string]any{"mutations": batch})
	if err != nil {
		return err
	}
	_, err = c.post("/update", b)
	return err
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path) // best effort: the file only decorates an error
	s := strings.TrimSpace(string(b))
	return fmt.Sprintf("%s: %q", filepath.Base(path), s[max(0, len(s)-400):])
}
