package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDirName holds everything a run leaves behind besides results:
// the sparker-serve binary and the per-workload temp dirs. It sits in
// the checkout (the harness writes nowhere else) and in .gitignore.
const buildDirName = ".bench_build"

// FindRoot walks up from the working directory to the module root, so
// the harness works from the checkout root (go run) and from bench/
// (go test).
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "sparker-serve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no sparker module root above the working directory")
		}
		dir = parent
	}
}

// BuildServer compiles cmd/sparker-serve from source into the build
// dir. go build is a no-op when the binary is current.
func BuildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDirName, "sparker-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sparker-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building sparker-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr finds a free loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// Proc is one sparker-serve process under test.
type Proc struct {
	Name string
	Addr string
	args []string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// URL is the process's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// fleet owns every process a workload starts, so one deferred call
// stops them all whichever way the workload ends.
type fleet struct {
	bin    string
	logDir string
	place  *placement
	procs  []*Proc
	// logs holds the log files this fleet has written; a name's log is
	// emptied the first time the fleet uses it and appended to after.
	logs map[string]bool
}

func newFleet(bin, logDir string, place *placement) *fleet {
	return &fleet{bin: bin, logDir: logDir, place: place, logs: map[string]bool{}}
}

// start launches sparker-serve on a fresh port in its own process
// group, its stderr captured beside the traces. It does not wait for
// readiness.
func (f *fleet) start(name string, args ...string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &Proc{Name: name, Addr: addr, args: args}
	if path := f.logPath(p); !f.logs[path] {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			return nil, err
		}
		f.logs[path] = true
	}
	f.procs = append(f.procs, p)
	return p, f.launch(p)
}

// restart relaunches a killed process with the flags and port it had.
func (f *fleet) restart(p *Proc) error { return f.launch(p) }

func (f *fleet) logPath(p *Proc) string { return filepath.Join(f.logDir, p.Name+".log") }

func (f *fleet) launch(p *Proc) error {
	logPath := f.logPath(p)
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(f.bin, append([]string{"-addr", p.Addr}, p.args...)...)
	cmd.Stderr = log
	cmd.Stdout = log
	// Own process group, and SIGKILL should the harness itself die
	// without running its deferred cleanup (a test timeout, kill -9).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := f.place.onServers(cmd.Start); err != nil {
		log.Close()
		return fmt.Errorf("bench: starting %s: %w", p.Name, err)
	}
	p.cmd, p.log, p.done = cmd, log, make(chan struct{})
	go func(done chan struct{}) {
		_ = cmd.Wait() // a killed server exits non-zero by design
		close(done)
	}(p.done)
	return nil
}

// kill9 sends SIGKILL to the process group and waits for the exit.
func (p *Proc) kill9() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-p.done
	p.log.Close()
}

// pid is the server's process ID.
func (p *Proc) pid() int { return p.cmd.Process.Pid }

// stopAll kills every process still running and waits for each.
func (f *fleet) stopAll() {
	for _, p := range f.procs {
		p.kill9()
	}
	f.procs = nil
}

// errorLines returns every captured server log line at level=ERROR.
func (f *fleet) errorLines() ([]string, error) {
	var out []string
	for path := range f.logs {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if strings.Contains(sc.Text(), "level=ERROR") {
				out = append(out, filepath.Base(path)+": "+sc.Text())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// waitReady polls /readyz until it answers 200 or the process exits.
func waitReady(p *Proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("bench: %s exited before becoming ready (see its log)", p.Name)
		default:
		}
		resp, err := http.Get(p.URL() + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("bench: %s not ready after %v", p.Name, timeout)
}

// procUsage is a /proc reading of one process: CPU consumed so far and
// peak resident memory.
type procUsage struct {
	cpu     time.Duration
	rssPeak float64 // MiB
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 100

// readUsage reads /proc/<pid>/stat and /proc/<pid>/status.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name: utime and stime are
	// the 14th and 15th of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return u, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("bench: bad /proc/%d/stat", pid)
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return u, fmt.Errorf("bench: bad VmHWM in /proc/%d/status", pid)
			}
			u.rssPeak = kb / 1024
		}
	}
	return u, nil
}

// stealTicks reads the machine's cumulative steal time from /proc/stat:
// clock ticks in which a virtual CPU was ready to run and the host ran
// something else.
func stealTicks() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("bench: unexpected /proc/stat: %q", line)
	}
	return strconv.ParseInt(fields[8], 10, 64)
}
