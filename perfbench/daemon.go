package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one rwrd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // set before exited closes
}

// startDaemon execs rwrd with args on a free loopback port and returns once
// /readyz answers 200, with the time from exec to that answer.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, take rwrd down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rwrd: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("rwrd exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				probe.CloseIdleConnections()
				return d, setup, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("rwrd not ready within 60s; see %s", logPath)
}

// stop sends SIGTERM, escalates to SIGKILL after 10s, and waits for exit.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu is the CPU time all of rwrd's threads have used so far, read from the
// kernel's per-process CPU clock with nanosecond resolution. Time the
// hypervisor steals from the virtual CPUs is not in it.
func (d *daemon) cpu() time.Duration {
	var ts syscall.Timespec
	clock := int32(^d.cmd.Process.Pid<<3 | 2) // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime on rwrd's CPU clock: %v", e)) // only if rwrd is gone
	}
	return time.Duration(ts.Nano())
}

// alive reports an error if the process has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("rwrd exited: %v", d.err)
	default:
		return nil
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// getJSON decodes a GET response body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Nodes    int     `json:"nodes"`
	Edges    int     `json:"edges"`
	Epsilon  float64 `json:"epsilon"`
	Alpha    float64 `json:"alpha"`
	Pressure struct {
		SojournMS float64 `json:"sojourn_ms"`
	} `json:"pressure"`
	Live struct {
		Swaps       float64 `json:"swaps"`
		FullSwaps   float64 `json:"full_swaps"`
		Invalidated float64 `json:"invalidated"`
	} `json:"live"`
}

// snapshot is the server's counters at one instant.
type snapshot struct {
	metrics scrape
	stats   serverStats
}

func takeSnapshot(c *http.Client, base string) (snapshot, error) {
	var s snapshot
	if err := getJSON(c, base+"/v1/stats", &s.stats); err != nil {
		return s, err
	}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	s.metrics, err = parseMetrics(resp.Body)
	return s, err
}
