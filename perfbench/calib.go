package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"time"
)

// The reference host's speed drifts: other machines' workloads share its
// cores and caches, and a fixed loop on one vCPU runs at 55% to 100% of
// its best speed in phases of seconds to minutes. Every time the
// benchmark reports is therefore scaled to the host's reference speed. A
// fixed calibration kernel is timed at least every calEvery, between
// operations, and each sample is multiplied by calRefMS over the mean of
// the kernel's two timings around it. This follows the slow drift that
// moves whole runs. Over three sets of ten runs per workload it cut the
// quartile spread of the set-up medians from 0.13-0.60 raw to 0.07-0.17
// scaled; serve-edit's 0.14 s rounds kept 0.05-0.11 scaled against
// 0.06-0.28 raw. It cannot follow changes inside a long operation, which
// averages the host's short phases itself: there the two timings at its
// ends only add their own noise (weaken-corpus's 17 s operation spread
// 0.30 scaled so against 0.14 raw). A calibration interval longer than
// calLong is therefore scaled by the median factor of the whole pass,
// which follows the drift of minutes that moves whole sets of runs: on
// two sets of ten weaken-corpus runs it brought the sets' medians from
// 27% apart raw to 6%. The raw wall times are kept in the detailed
// report.
const (
	// calRefMS is the kernel's time on the reference host (2 vCPU Xeon
	// at 2.1 GHz) in its fast phase.
	calRefMS = 8.0
	// calEvery is the longest gap between two calibrations.
	calEvery = time.Second
	// calLong is the longest calibration interval whose samples are
	// scaled: above the other workloads' operations (at most about 3 s)
	// and below weaken-corpus's.
	calLong = 8 * time.Second
	// calReps is the kernel runs per calibration; their median counts.
	calReps = 3
)

// calSource is the kernel's input: a synthetic Go file of calFuncs
// small functions.
var calSource = buildCalSource()

const calFuncs = 400

func buildCalSource() []byte {
	var b strings.Builder
	b.WriteString("package cal\n\n")
	for i := 0; i < calFuncs; i++ {
		fmt.Fprintf(&b, `type rec%d struct {
	key  string
	val  int
	next *rec%d
}

func walk%d(head *rec%d, m map[string]int) (sum int) {
	for r := head; r != nil; r = r.next {
		if v, ok := m[r.key]; ok && v > %d {
			sum += v * (r.val + %d)
		} else {
			m[r.key] = r.val
		}
	}
	return sum
}

`, i, i, i, i, i%17, i%5)
	}
	return []byte(b.String())
}

// calKernel parses the synthetic source with the standard library's Go
// parser: a compiler frontend like the measured ones, allocating, hashing
// names and chasing pointers the way they do. The standard library comes
// with the toolchain, so no change to the program moves it.
func calKernel() {
	if _, err := parser.ParseFile(token.NewFileSet(), "cal.go", calSource, parser.SkipObjectResolution); err != nil {
		panic(err) // the source is generated above; a parse error is a bug
	}
}

// calibrate returns the kernel's median time in ms over calReps runs,
// after one run that warms the heap up. Callers collect the heap first.
func calibrate() float64 {
	calKernel()
	xs := make([]float64, 0, calReps)
	for i := 0; i < calReps; i++ {
		start := time.Now()
		calKernel()
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs)
}
