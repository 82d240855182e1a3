package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running redisgraph-server child process.
type serverProc struct {
	cmd      *exec.Cmd
	addr     string
	drained  chan struct{} // closed once the child's log pipe hits EOF
	stopOnce sync.Once
}

// launchTimeout bounds how long a fresh server may take to log its address.
const launchTimeout = 30 * time.Second

// launch starts bin on an ephemeral loopback port and returns once the
// child has logged the address it bound. The child dies with the benchmark
// (Pdeathsig) even if the benchmark itself is killed.
func launch(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("server log pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, logs) // keep the child from blocking on a full pipe
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("server exited before logging its address")
	case <-time.After(launchTimeout):
		p.stop()
		return nil, fmt.Errorf("server did not log its address within %s", launchTimeout)
	}
}

// stop kills the child and reaps it; safe to call more than once.
func (p *serverProc) stop() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
		_ = p.cmd.Wait()
		<-p.drained
	})
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in server status")
}

// procSet tracks every launched server so any exit path, including a
// signal or the run watchdog, can kill and reap them.
type procSet struct {
	mu    sync.Mutex
	procs []*serverProc
}

func (s *procSet) launch(bin string) (*serverProc, error) {
	p, err := launch(bin)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p, nil
}

func (s *procSet) stopAll() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}
