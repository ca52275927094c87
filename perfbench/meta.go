package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host is the metadata recorded with every run.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// Commit is the git commit of the checkout, or "none" outside a git
	// repository; TreeSHA256 identifies the built sources either way.
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

func hostMeta() (host, error) {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     "none",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	sum, err := treeHash(".")
	if err != nil {
		return h, err
	}
	h.TreeSHA256 = sum
	return h, nil
}

// calibrate times a fixed piece of pure-Go work that uses none of the
// repository's code (map updates, a sort, hashing, pointer allocations), in
// milliseconds. The shared host's speed drifts by up to 2x over minutes;
// the median of a few calibrations at each end of a run, recorded beside
// its metrics, tells host drift apart from a change in the program.
func calibrate() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	m := map[int]int{}
	xs := make([]int, 0, 200_000)
	for i := 0; i < cap(xs); i++ {
		v := r.Int()
		m[v%100_000] += i
		xs = append(xs, v)
	}
	sort.Ints(xs)
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	sum := sha256.Sum256(buf)
	type node struct {
		next *node
		v    int
	}
	var list *node
	for i := 0; i < 100_000; i++ {
		list = &node{list, i}
	}
	if len(m)+int(sum[0])+list.v == 0 {
		panic("unreachable")
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash hashes the Go sources and module files under root (hidden
// directories, which hold build outputs, are skipped).
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runRecord is one run's raw summary, appended to runs.jsonl in the build
// directory so every run a change made can be shown later.
type runRecord struct {
	Time     string             `json:"time"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	WallS    float64            `json:"wall_s"`
	Host     host               `json:"host"`
	Info     map[string]float64 `json:"info,omitempty"`
	Result   *result            `json:"result"`
}

func appendRecord(buildDir string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(buildDir, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
