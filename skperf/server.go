package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/wal"
)

// sigBytes is the leaf signature length per corpus: skserve's default
// for the short Restaurants documents, 189 bytes for the long Hotels
// ones.
func sigBytes(spec corpusSpec) int {
	if spec.name == "hotels" {
		return 189
	}
	return 64
}

// walWindow is skserve's default -wal-fsync group-commit window.
const walWindow = 2 * time.Millisecond

// engineConfig is the engine configuration a workload's server runs.
func engineConfig(w *workload) spatialkeyword.Config {
	cfg := spatialkeyword.Config{SignatureBytes: sigBytes(w.spec)}
	if w.wal {
		cfg.WAL, cfg.WALSyncWindow = true, walWindow
	}
	return cfg
}

// buildData loads the corpus into an empty durable engine directory
// through the program's own build path and checkpoints it; it returns
// the object ids in corpus order. A WAL engine takes the corpus through
// the replica catch-up path (ApplyReplicated), which logs records
// without waiting out the group-commit window per object, and keeps
// the default window for the server.
func buildData(w *workload, docs []doc, dir string) ([]uint64, error) {
	cfg := engineConfig(w)
	ids := make([]uint64, len(docs))
	if w.shards > 1 {
		se, err := shard.NewDurable(cfg, dir, shard.Options{Shards: w.shards})
		if err != nil {
			return nil, err
		}
		for i, d := range docs {
			if ids[i], err = se.Add([]float64{d.x, d.y}, d.text); err != nil {
				se.Close()
				return nil, err
			}
		}
		if err := se.Save(); err != nil {
			se.Close()
			return nil, err
		}
		return ids, se.Close()
	}
	e, err := spatialkeyword.NewDurableEngine(cfg, dir)
	if err != nil {
		return nil, err
	}
	for i, d := range docs {
		if w.wal {
			ids[i] = uint64(i)
			err = e.ApplyReplicated(wal.Record{Seq: uint64(i + 1), Op: wal.OpAdd, ID: ids[i], Point: []float64{d.x, d.y}, Text: d.text})
		} else {
			ids[i], err = e.Add([]float64{d.x, d.y}, d.text)
		}
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	if err := e.Save(); err != nil {
		e.Close()
		return nil, err
	}
	return ids, e.Close()
}

// serverArgs are the skserve flags a workload runs with.
func serverArgs(w *workload, addr, dir string) []string {
	args := []string{"-addr", addr, "-dir", dir, "-sig", strconv.Itoa(sigBytes(w.spec))}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.wal {
		args = append(args, "-wal", "-wal-fsync", walWindow.String())
	}
	return args
}

// server is one running skserve process.
type server struct {
	proc  *os.Process
	waitc chan error // receives the process's exit
	base  string
	log   *os.File
}

// freeAddr picks a loopback port that is free now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer starts skserve on dir, keeping its output in logPath, and
// waits until it answers a query.
func startServer(bin string, w *workload, dir, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, serverArgs(w, addr, dir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start skserve: %w", err)
	}
	s := &server{proc: cmd.Process, waitc: make(chan error, 1), base: "http://" + addr, log: logf}
	go func() { s.waitc <- cmd.Wait() }()
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		select {
		case err := <-s.waitc:
			logf.Close()
			return nil, fmt.Errorf("skserve exited before answering (%v); see %s", err, logPath)
		default:
		}
		resp, err := hc.Get(s.base + "/search?lat=0&lon=0&k=1")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("skserve did not answer within 120s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.proc.Kill()
	<-s.waitc
	s.log.Close()
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.proc.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.proc.Pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
