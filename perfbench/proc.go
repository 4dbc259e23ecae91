package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished program process.
type procRun struct {
	wall     time.Duration
	cpu      time.Duration // user + system, from the child's rusage
	maxRSSMB float64
	stdout   []byte
	stderr   []byte
}

// runProgram runs the binary to completion and measures it. A non-zero
// exit is an error carrying the program's standard error.
func runProgram(bin string, args ...string) (procRun, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := procRun{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	r.cpu, r.maxRSSMB = usage(cmd.ProcessState)
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLines(errb.String(), 5))
	}
	return r, nil
}

// usage returns an exited process's CPU time and peak resident set.
func usage(ps *os.ProcessState) (cpu time.Duration, maxRSSMB float64) {
	if ps == nil {
		return 0, 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// lastLines keeps the tail of a program's diagnostics for an error message.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a live process's user + system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is field 3, utime field 14 and stime field 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}
