package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank), 0 when empty. It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(r, 0)]
}

// counters are the cumulative per-layer counters of a deployment at one
// instant; a window's figures are the difference of two snapshots.
type counters struct {
	// In-process layers.
	attempts      int64 // logic invocations
	instances     uint64
	rounds        uint64
	consMsgs      uint64
	batchOps      uint64
	execRetries   uint64
	staleRejects  uint64
	lockAcquires  uint64
	lockWaits     uint64
	lockWaitNanos int64
	lockTimeouts  uint64
	forced        int64
	syncs         int64
	promotions    int
	memnetMsgs    int64

	// Server processes (tcp-deposit).
	appCPUTicks  int64
	dbCPUTicks   int64
	dbWriteBytes int64
	dbWriteCalls int64
}

func (c counters) sub(b counters) counters {
	return counters{
		attempts:      c.attempts - b.attempts,
		instances:     c.instances - b.instances,
		rounds:        c.rounds - b.rounds,
		consMsgs:      c.consMsgs - b.consMsgs,
		batchOps:      c.batchOps - b.batchOps,
		execRetries:   c.execRetries - b.execRetries,
		staleRejects:  c.staleRejects - b.staleRejects,
		lockAcquires:  c.lockAcquires - b.lockAcquires,
		lockWaits:     c.lockWaits - b.lockWaits,
		lockWaitNanos: c.lockWaitNanos - b.lockWaitNanos,
		lockTimeouts:  c.lockTimeouts - b.lockTimeouts,
		forced:        c.forced - b.forced,
		syncs:         c.syncs - b.syncs,
		promotions:    c.promotions - b.promotions,
		memnetMsgs:    c.memnetMsgs - b.memnetMsgs,
		appCPUTicks:   c.appCPUTicks - b.appCPUTicks,
		dbCPUTicks:    c.dbCPUTicks - b.dbCPUTicks,
		dbWriteBytes:  c.dbWriteBytes - b.dbWriteBytes,
		dbWriteCalls:  c.dbWriteCalls - b.dbWriteCalls,
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// reports them in hundredths of a second on every architecture.
const clockTicks = 100

// procCPUTicks returns utime+stime of process pid.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	fs := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fs) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fs[0] is field 3 (state); utime and stime are fields 14 and 15.
	u, err1 := strconv.ParseInt(fs[11], 10, 64)
	st, err2 := strconv.ParseInt(fs[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return u + st, nil
}

// procFields reads the "name: value" lines of a /proc file.
func procFields(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fs := strings.Fields(val)
		if len(fs) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// peakRSSMB returns the VmHWM of a process ("self" or a pid) in MiB.
func peakRSSMB(proc string) (float64, error) {
	fs, err := procFields("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	kb, ok := fs["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/%s/status", proc)
	}
	return float64(kb) / 1024, nil
}

// stolen returns the time the hypervisor has stolen from CPU cpu since
// boot (the steal column of /proc/stat).
func stolen(cpu int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	prefix := "cpu" + strconv.Itoa(cpu) + " "
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 9 {
			break
		}
		ticks, err := strconv.ParseInt(fs[8], 10, 64)
		if err != nil {
			break
		}
		return time.Duration(ticks) * time.Second / clockTicks, nil
	}
	return 0, fmt.Errorf("no steal column for cpu%d in /proc/stat", cpu)
}
