package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file owns everything outside the benchmark's own process: the
// scratch directory, the traderd build, the child process and the two
// operator surfaces read from it (/metrics and the kernel's accounting).

// scratch is the one directory the benchmark writes to: sockets, journals,
// daemon logs and traces live in a per-run subdirectory removed on exit; the
// traderd binary is kept beside it so later runs only re-check it.
type scratch struct {
	root string // the trader module root
	bin  string // <root>/.bench_build/traderd
	dir  string // <root>/.bench_build/run-<pid>
}

// findRoot walks up from the working directory to the trader module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			(bytes.HasPrefix(b, []byte("module trader\n")) || bytes.HasPrefix(b, []byte("module trader\r\n"))) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no trader module (go.mod with \"module trader\") above the working directory")
		}
		dir = parent
	}
}

func newScratch() (*scratch, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	dir := filepath.Join(base, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root, bin: filepath.Join(base, "traderd"), dir: dir}, nil
}

// build compiles cmd/traderd from the checkout. An up-to-date binary makes
// this the toolchain's staleness check only.
func (s *scratch) build() error {
	cmd := exec.Command("go", "build", "-o", s.bin, "./cmd/traderd")
	cmd.Dir = s.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/traderd: %v\n%s", err, out)
	}
	return nil
}

// children tracks every live child so that a signal, a panic or a failed
// check can reap them all before the process exits.
var children struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func reapAll() {
	children.Lock()
	live := make([]*daemon, 0, len(children.live))
	for d := range children.live {
		live = append(live, d)
	}
	children.Unlock()
	for _, d := range live {
		d.stop()
	}
}

// daemon is one traderd child process.
type daemon struct {
	cmd     *exec.Cmd
	dir     string // working directory; the socket path is relative to it
	sock    string
	metrics string // host:port of -metrics
	log     *os.File
	started time.Time
	done    chan struct{} // closed once Wait returned
	waitErr error
	once    sync.Once
}

// sockName is short and relative (the child's and the dialer's working
// directory is the run directory) so the 108-byte sun_path limit never
// depends on where the checkout lives.
const sockName = "s.sock"

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs the traderd binary in dir with the sizing flags every
// workload shares plus extra. It returns as soon as the process exists;
// dialAll waits for the listener.
func startDaemon(bin, dir string, shards int, extra ...string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "traderd.log"))
	if err != nil {
		return nil, err
	}
	_ = os.Remove(filepath.Join(dir, sockName))
	args := append([]string{
		"-listen", "unix:" + sockName, "-suo", suoProfile,
		"-shards", strconv.Itoa(shards), "-stats-seconds", "0", "-metrics", addr,
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark is killed outright the kernel takes the child with
	// it. main locks its goroutine to the main thread and is the only
	// starter of children, so the signal is tied to the process's lifetime.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, dir: dir, sock: filepath.Join(dir, sockName), metrics: addr,
		log: logf, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*daemon]struct{})
	}
	children.live[d] = struct{}{}
	children.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop terminates the child (SIGTERM, SIGKILL after 5 s) and waits for it.
// It is idempotent. The returned rusage is the child's whole life.
func (d *daemon) stop() *syscall.Rusage {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
		children.Lock()
		delete(children.live, d)
		children.Unlock()
	})
	<-d.done
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// exited reports whether the child has already ended (a crash mid-run).
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of the child's log for error messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(filepath.Join(d.dir, "traderd.log"))
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// clkTck is the kernel's USER_HZ, 100 on every Linux port Go supports.
const clkTck = 100

// cpuSeconds reads the child's utime+stime so far from /proc/<pid>/stat.
// rusage only exists once the child is reaped; the timed window needs
// readings while it runs.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

func parseProcStat(s string) (float64, error) {
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the closing parenthesis.
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSKB reads the child's resident-set high-water mark from
// /proc/<pid>/status. rusage's ru_maxrss will not do: across exec the kernel
// folds the forking process's own peak into it, so a daemon started by a
// benchmark that has grown to 150 MB reports 150 MB.
func (d *daemon) peakRSSKB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc status")
}

// scrape fetches /metrics and parses it. Series are keyed as they are
// printed, labels included: `trader_shed_frames_total{tier="observation"}`.
func (d *daemon) scrape() (map[string]float64, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text exposition: `name{labels} value` lines,
// comments and blanks skipped. A line it cannot read is an error — a
// scrape the checks rest on must not be silently partial.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); cut < end || cut < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// linkJournal hard-links every segment of the journal at src into dst. A
// -journal boot appends new segments and never rewrites old ones, so each
// cold boot gets a private directory over the same bytes.
func linkJournal(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(p, filepath.Join(dst, rel))
	})
}
