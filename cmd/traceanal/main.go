// traceanal analyzes a Chrome trace-event JSON file written by lockstat or
// clustersim (-trace): it rebuilds the access and span aggregates from the
// event stream and runs the placement analyzer over them, proposing the
// home module for each piece of traced kernel data — and each lock — that
// minimizes ring crossings.
//
//	clustersim -size 16 -rounds 10 -trace trace.json
//	traceanal trace.json
//
// The machine topology and latency weights are read from the trace's
// otherData.machine metadata (a NUMAchine ring hierarchy's included, so
// the global ring is priced at its own latency); -stations and
// -procs-per-station override them (required for traces written without
// metadata).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
)

// traceFile mirrors the subset of the Chrome trace-event format the
// pipeline writes (see internal/trace.Chrome).
type traceFile struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		TS   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		TID  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]interface{} `json:"otherData"`
}

func argInt(args map[string]interface{}, key string, def int) int {
	if v, ok := args[key].(float64); ok {
		return int(v)
	}
	return def
}

func main() {
	stations := flag.Int("stations", 0, "override/assume station count (0 = from trace metadata)")
	perStation := flag.Int("procs-per-station", 0, "override/assume processors per station")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceanal [flags] trace.json")
		os.Exit(2)
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceanal: %v\n", err)
		os.Exit(1)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		fmt.Fprintf(os.Stderr, "traceanal: parse %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}

	// The traced machine's config: trace metadata, overridable by flags,
	// HECTOR's where both are silent. Topology and cost weights derive from
	// it exactly as the in-run policies derive them from their machine.
	cfg := sim.Config{}.WithDefaults()
	if meta, ok := tf.OtherData["machine"].(map[string]interface{}); ok {
		cfg.Stations = argInt(meta, "stations", cfg.Stations)
		cfg.ProcsPerStation = argInt(meta, "procsPerStation", cfg.ProcsPerStation)
		cfg.StationsPerRing = argInt(meta, "stationsPerRing", cfg.StationsPerRing)
		lat := &cfg.Lat
		lat.Local = sim.Duration(argInt(meta, "latLocal", int(lat.Local)))
		lat.Station = sim.Duration(argInt(meta, "latStation", int(lat.Station)))
		lat.Ring = sim.Duration(argInt(meta, "latRing", int(lat.Ring)))
		lat.Ring2 = sim.Duration(argInt(meta, "latRing2", int(lat.Ring2)))
	}
	if *stations > 0 {
		cfg.Stations = *stations
	}
	if *perStation > 0 {
		cfg.ProcsPerStation = *perStation
	}
	cfg = cfg.WithDefaults()
	topo, costs := autonomic.TopoOf(cfg), autonomic.CostsFromLatency(cfg.Lat)

	// Rebuild the aggregate the in-process pipeline would have produced.
	agg := trace.NewAggregate(topo.Modules())
	for _, ev := range tf.TraceEvents {
		rec := sim.TraceEvent{
			Name:  ev.Name,
			Proc:  ev.TID,
			Start: sim.Time(ev.TS * sim.CyclesPerMicrosecond),
			End:   sim.Time((ev.TS + ev.Dur) * sim.CyclesPerMicrosecond),
			Src:   argInt(ev.Args, "src", -1),
			Dst:   argInt(ev.Args, "dst", -1),
		}
		if d, ok := ev.Args["dist"].(string); ok {
			rec.Dist = sim.DistClassFromString(d)
		}
		switch ev.Cat {
		case "mem":
			rec.Kind = sim.EvAccess
			rec.Arg = uint64(argInt(ev.Args, "addr", 0))
		case "span":
			rec.Kind = sim.EvSpan
			if k, ok := ev.Args["kind"].(string); ok {
				rec.Span = sim.SpanKindFromString(k)
			}
			rec.Arg = uint64(argInt(ev.Args, "obj", 0))
		case "irq":
			rec.Kind = sim.EvIRQ
		case "sched":
			rec.Kind = sim.EvPark
			if ev.Name == "unpark" {
				rec.Kind = sim.EvUnpark
			}
		default:
			rec.Kind = sim.EvInstant
		}
		agg.Event(rec)
	}

	fmt.Printf("%s: %d events\n", flag.Arg(0), len(tf.TraceEvents))
	fmt.Print(agg.Summary())
	fmt.Println()
	fmt.Print(placement.Analyze(agg, topo, costs).String())
}
