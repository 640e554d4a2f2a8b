package main

import (
	"bufio"
	"context"
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

// daemon is one genclusd subprocess listening on 127.0.0.1 with a private
// data dir and every other flag at its default.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	dataDir string
	logf    *os.File
	exited  chan struct{}
}

// startDaemon launches bin and waits until /healthz answers.
func startDaemon(ctx context.Context, bin, workDir string, n int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(workDir, "data-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(workDir, fmt.Sprintf("genclusd-%d.log", n)))
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Tie the daemon's life to this process, so a benchmark killed from
	// outside cannot leave it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("start genclusd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, dataDir: dataDir, logf: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is reported by stop
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("genclusd exited before becoming healthy (see %s)", d.logf.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("genclusd not healthy after %v", limit)
		}
	}
}

// stop interrupts the daemon, kills it if it has not exited within five
// seconds, waits for it, and removes its data dir.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
	os.RemoveAll(d.dataDir)
}

// statusMB reads one memory line of the daemon's /proc status, such as
// VmHWM (peak resident set), in MiB.
func (d *daemon) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field+":" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/%d/status", field, d.cmd.Process.Pid)
}

// cpuSeconds reads the CPU time the daemon has used so far, user plus
// system, summed over all its threads, from /proc/<pid>/stat. The kernel
// counts only time the daemon ran: time it waited for a CPU, or that a
// hypervisor stole from the machine, is left out. So it measures the
// daemon's own work, whatever else the host is running.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the command name, which is in parentheses and may
	// hold spaces: state is the first, utime the 12th, stime the 13th.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", d.cmd.Process.Pid, err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// clockTicks is the unit of /proc's CPU times, USER_HZ, which is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// promSample maps each series of a Prometheus text scrape ("name{labels}")
// to its value.
type promSample map[string]float64

func (d *daemon) scrapeMetrics(ctx context.Context) (promSample, error) {
	body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(promSample)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parse /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}
