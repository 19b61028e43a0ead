// Sensors: stream processor networks over temporal data.
//
// Two fleets of sensors report validity intervals (periods during which a
// reading is trusted). The example composes stream processors the way
// Section 4.1 describes — a join processor feeding combinators — to answer:
//
//  1. which calibration windows fully cover a reading's validity
//     (Contain-join as a pipeline stage),
//  2. how many trusted readings each sensor produced (the Figure 4
//     grouped-sum processor),
//  3. which readings were invalidated before a reference window even
//     started (Before-semijoin).
package main

import (
	"fmt"
	"math/rand"

	"tdb/internal/core"
	"tdb/internal/interval"
	"tdb/internal/metrics"
	"tdb/internal/relation"
	"tdb/internal/stream"
	"tdb/internal/value"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Calibration windows: long, overlapping.
	var calibrations []relation.Tuple
	for i := 0; i < 8; i++ {
		start := interval.Time(i * 40)
		calibrations = append(calibrations, relation.Tuple{
			S:    fmt.Sprintf("cal-%d", i),
			V:    value.String_("calibration"),
			Span: interval.New(start, start+interval.Time(60+rng.Intn(40))),
		})
	}
	// Readings: short validity windows from three sensors, grouped by sensor.
	var readings []relation.Tuple
	for s := 0; s < 3; s++ {
		for r := 0; r < 6; r++ {
			start := interval.Time(rng.Intn(300))
			readings = append(readings, relation.Tuple{
				S:    fmt.Sprintf("sensor-%d", s),
				V:    value.Int(int64(100*s + r)),
				Span: interval.New(start, start+interval.Time(3+rng.Intn(12))),
			})
		}
	}
	span := func(t relation.Tuple) interval.Interval { return t.Span }
	order := relation.Order{relation.TSAsc}
	relation.SortSpans(calibrations, span, order)
	relation.SortSpans(readings, span, order)

	// 1. Contain-join as a pipeline stage: the join's emit callback collects
	// its pairs; downstream combinators filter them as a stream.
	var pairs []stream.Pair[relation.Tuple, relation.Tuple]
	if err := core.ContainJoinTSTS(
		stream.FromSlice(calibrations), stream.FromSlice(readings),
		span, core.Options{}, func(c, r relation.Tuple) {
			pairs = append(pairs, stream.Pair[relation.Tuple, relation.Tuple]{First: c, Second: r})
		}); err != nil {
		panic(err)
	}
	sensor0 := stream.Filter(stream.FromSlice(pairs),
		func(p stream.Pair[relation.Tuple, relation.Tuple]) bool {
			return p.Second.S == "sensor-0"
		})
	fmt.Println("sensor-0 readings fully inside a calibration window:")
	n := 0
	for {
		p, ok := sensor0.Next()
		if !ok {
			break
		}
		n++
		fmt.Printf("  reading %v %v within %s %v\n", p.Second.V, p.Second.Span, p.First.S, p.First.Span)
	}
	if err := sensor0.Err(); err != nil {
		panic(err)
	}
	fmt.Printf("  (%d pairs)\n\n", n)

	// 2. Figure 4: per-sensor reading counts as a grouped stream sum.
	bySensor := append([]relation.Tuple{}, readings...)
	// Group by surrogate (stable sort on S).
	for i := 1; i < len(bySensor); i++ {
		for j := i; j > 0 && bySensor[j-1].S > bySensor[j].S; j-- {
			bySensor[j-1], bySensor[j] = bySensor[j], bySensor[j-1]
		}
	}
	counts := stream.GroupCount(stream.FromSlice(bySensor),
		func(t relation.Tuple) string { return t.S })
	fmt.Println("trusted readings per sensor (grouped-sum stream processor):")
	for {
		p, ok := counts.Next()
		if !ok {
			break
		}
		fmt.Printf("  %s: %d\n", p.First, p.Second)
	}

	// 3. Before-semijoin: readings whose validity expired before the last
	// calibration window began — candidates for recalibration, found with
	// one unordered scan of each operand.
	probe := &metrics.Probe{}
	fmt.Println("\nreadings expired before some calibration window started:")
	err := core.BeforeSemijoin(
		stream.FromSlice(readings), stream.FromSlice(calibrations),
		span, core.Options{Probe: probe},
		func(t relation.Tuple) { fmt.Printf("  %s reading %v %v\n", t.S, t.V, t.Span) })
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost: %s\n", probe)
}
