package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLevels with at least ten
// samples beyond it, and its value. Fewer than twenty samples leave no
// level but the median with ten samples beyond; the median is returned
// then, so the figure is always defined and the stated percentile says
// what it is.
func tail(xs []float64) (pct, value float64) {
	n := float64(len(xs))
	for _, p := range tailLevels {
		if n*(100-p)/100 >= 10-1e-9 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// gcPauseTotal is the cumulative stop-the-world GC pause time of the
// process so far.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}
