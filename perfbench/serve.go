package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running hbcserve process.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan error    // receives cmd.Wait's result once
	client *http.Client  // readiness probes
	stdout chan struct{} // closed when the server's stdout is drained
}

// startServer starts hbcserve on a free local port with default flags and
// the given kernel directory, and returns once /readyz answers 200, with
// the time from process start to that answer.
func startServer(bin, kernelDir, workDir string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-kernels", kernelDir, "-addr", "127.0.0.1:0")
	cmd.Dir = workDir
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting hbcserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), stdout: make(chan struct{}),
		client: &http.Client{Timeout: time.Second}}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	go func() {
		<-s.stdout
		s.exited <- cmd.Wait()
	}()
	deadline := time.After(60 * time.Second)
	select {
	case s.base = <-addr:
	case err := <-s.exited:
		s.exited <- err
		return nil, 0, fmt.Errorf("hbcserve exited before serving: %v", err)
	case <-deadline:
		s.kill()
		return nil, 0, fmt.Errorf("hbcserve did not report its address")
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-deadline:
			s.kill()
			return nil, 0, fmt.Errorf("hbcserve not ready: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop drains the server with SIGTERM, killing it if it has not exited
// within 20 s, and waits for the process to end.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("hbcserve drain: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("hbcserve did not drain within 20s")
	}
}

// kill ends the server at once and waits for the process to end.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// vmHWM returns the VmHWM line of a /proc status file in MB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// stageKernels copies the five top-level kernels into a fresh directory
// under parent, so the server never loads the kernels/bad fixtures.
func stageKernels(ks []kernelSource, parent string) (string, error) {
	dir, err := os.MkdirTemp(parent, "kernels-")
	if err != nil {
		return "", err
	}
	for _, k := range ks {
		if err := os.WriteFile(filepath.Join(dir, k.name+".hbk"), k.src, 0o644); err != nil {
			os.RemoveAll(dir)
			return "", err
		}
	}
	return dir, nil
}
