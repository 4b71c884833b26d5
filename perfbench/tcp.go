package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"etx"
	"etx/internal/id"
)

// server is one launched etxappserver or etxdbserver process.
type server struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// tcpDeployment is tcp-deposit's stack: 3 etxappserver -workers 32
// -adaptive and 1 etxdbserver -adaptive over loopback, the database on a
// file-backed journal, driven through one etx.Dial client.
type tcpDeployment struct {
	dir  string
	db   *server
	apps []*server
	cl   *etx.Client
	tr   *tracer

	stopOnce sync.Once
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

func book(ports []int) string {
	parts := make([]string, len(ports))
	for i, p := range ports {
		parts[i] = fmt.Sprintf("%d=127.0.0.1:%d", i+1, p)
	}
	return strings.Join(parts, ",")
}

// launch starts one server binary with its output in dir/<name>.log. The
// process is killed if the benchmark dies first.
func launch(bin, dir, name string, args ...string) (*server, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.done)
	}()
	return s, nil
}

// halt stops s with SIGTERM, escalating to SIGKILL, and waits until it has
// been reaped.
func (s *server) halt() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.done
}

func startTCP(init []int64, opts options) (d *tcpDeployment, err error) {
	if err := os.MkdirAll(opts.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.work, "tcp-")
	if err != nil {
		return nil, err
	}
	d = &tcpDeployment{dir: dir}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	ports, err := freePorts(5)
	if err != nil {
		return nil, err
	}
	apps := book(ports[:3])
	dbs := book(ports[3:4])
	client := fmt.Sprintf("1=127.0.0.1:%d", ports[4])
	var seed strings.Builder
	for i, b := range init {
		if i > 0 {
			seed.WriteByte(',')
		}
		fmt.Fprintf(&seed, "k%d=%d", i, b)
	}
	binDir, err := filepath.Abs(opts.bin)
	if err != nil {
		return nil, err
	}
	d.db, err = launch(filepath.Join(binDir, "etxdbserver"), dir, "db1",
		"-id", "1", "-listen", fmt.Sprintf("127.0.0.1:%d", ports[3]), "-appservers", apps,
		"-data", "db1.journal", "-adaptive", "-seed", seed.String())
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 3; i++ {
		s, err := launch(filepath.Join(binDir, "etxappserver"), dir, fmt.Sprintf("app%d", i),
			"-id", strconv.Itoa(i), "-listen", fmt.Sprintf("127.0.0.1:%d", ports[i-1]),
			"-appservers", apps, "-dbservers", dbs, "-clients", client,
			"-workers", strconv.Itoa(inprocWorkers), "-adaptive")
		if err != nil {
			return nil, err
		}
		d.apps = append(d.apps, s)
	}
	d.cl, err = etx.Dial(etx.DialConfig{ID: 1, Listen: fmt.Sprintf("127.0.0.1:%d", ports[4]), AppServers: apps})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// servers lists every launched server process.
func (d *tcpDeployment) servers() []*server {
	out := append([]*server(nil), d.apps...)
	if d.db != nil {
		out = append(out, d.db)
	}
	return out
}

// stop closes the client, stops every server and removes the journals.
func (d *tcpDeployment) stop() {
	d.stopOnce.Do(func() {
		if d.cl != nil {
			d.cl.Close()
		}
		var wg sync.WaitGroup
		for _, s := range d.servers() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.halt()
			}()
		}
		wg.Wait()
		os.RemoveAll(d.dir)
	})
}

// issue sends the bank request "k<a>:<amount>" (amount 0 for a read) and
// parses the reply "k<a>=<balance>".
func (d *tcpDeployment) issue(ctx context.Context, i int, o op) (outcome, error) {
	amount := 1
	if o.kind == opRead {
		amount = 0
	}
	acct := "k" + strconv.Itoa(int(o.a))
	var start int64
	if d.tr != nil {
		start = d.tr.now()
	}
	res, err := d.cl.Issue(ctx, []byte(acct+":"+strconv.Itoa(amount)))
	if err != nil {
		return outcome{}, err
	}
	if d.tr != nil {
		d.tr.record(spanIssue, id.ResultID{}, int64(i), start)
	}
	name, bal, ok := strings.Cut(string(res), "=")
	if !ok || name != acct {
		return outcome{}, fmt.Errorf("request %d (%s) answered with %q", i, acct, res)
	}
	v, err := strconv.ParseInt(bal, 10, 64)
	if err != nil {
		return outcome{}, fmt.Errorf("request %d answered with %q", i, res)
	}
	return outcome{v1: v}, nil
}

// balances reads every account through the deployment with zero-amount
// requests, depth requests at a time.
func (d *tcpDeployment) balances() ([]int64, error) {
	out := make([]int64, accounts)
	errs := make([]error, depth)
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := w; a < accounts; a += depth {
				ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
				r, err := d.issue(ctx, -1, op{kind: opRead, a: uint16(a)})
				cancel()
				if err != nil {
					errs[w] = fmt.Errorf("read k%d: %w", a, err)
					return
				}
				out[a] = r.v1
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// snapshot reads the server processes' CPU time and the database server's
// write volume from /proc.
func (d *tcpDeployment) snapshot() counters {
	var c counters
	for _, s := range d.apps {
		t, _ := procCPUTicks(s.cmd.Process.Pid) // a dead server reads as 0
		c.appCPUTicks += t
	}
	c.dbCPUTicks, _ = procCPUTicks(d.db.cmd.Process.Pid)
	if io, err := procFields(fmt.Sprintf("/proc/%d/io", d.db.cmd.Process.Pid)); err == nil {
		c.dbWriteBytes, c.dbWriteCalls = io["write_bytes"], io["syscw"]
	}
	return c
}

func (d *tcpDeployment) lag() uint64  { return 0 }
func (d *tcpDeployment) check() error { return nil }

// peakRSSMB sums the server processes' VmHWM.
func (d *tcpDeployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range d.servers() {
		v, err := peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
