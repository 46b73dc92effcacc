// Command benchwire measures the zero-alloc wire codec. For each
// handshake-path message the crawler sends or parses at volume —
// devp2p HELLO, eth STATUS, and the discv4 PING — it benchmarks
// encode and decode through the compiled codec plans, then emits
// BENCH_wire.json.
//
// Usage:
//
//	benchwire [-out BENCH_wire.json] [-baseline BENCH_wire.json]
//	          [-tolerance 0.20]
//
// With -baseline, two gates per message and direction make the result
// a contract rather than a report:
//
//   - allocs/op may not exceed the committed plan_allocs_op.
//     Allocation counts are deterministic, so this gate is
//     machine-independent.
//   - ns/op may not regress beyond the tolerance against the
//     committed plan_ns_op (the BENCH_crawl.json pattern).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"net"
	"os"
	"runtime"
	"testing"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/discv4"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/rlp"
)

// Direction is one benchmarked codec direction of one message.
type Direction struct {
	PlanNsOp   float64 `json:"plan_ns_op"`
	PlanAllocs float64 `json:"plan_allocs_op"`
}

// Message is the per-message benchmark record.
type Message struct {
	Name   string    `json:"name"`
	Bytes  int       `json:"encoded_bytes"`
	Encode Direction `json:"encode"`
	Decode Direction `json:"decode"`
}

// Result is the BENCH_wire.json schema.
type Result struct {
	GoVersion string    `json:"go_version"`
	Messages  []Message `json:"messages"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_wire.json", "write the result JSON here ('-' for stdout only)")
		baseline  = flag.String("baseline", "", "gate allocs/op and ns/op against this committed result")
		tolerance = flag.Float64("tolerance", 0.20, "allowed relative ns/op regression vs baseline")
	)
	flag.Parse()

	res := &Result{GoVersion: runtime.Version()}
	for _, m := range wireMessages() {
		rec, err := benchMessage(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchwire:", err)
			os.Exit(1)
		}
		res.Messages = append(res.Messages, *rec)
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchwire:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf) //nolint:errcheck
	if *out != "-" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchwire:", err)
			os.Exit(1)
		}
	}

	if *baseline != "" {
		if err := compareBaseline(res, *baseline, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			os.Exit(1)
		}
	}
}

// wireMsg is one message to benchmark: a value to encode and a
// factory for decode destinations.
type wireMsg struct {
	name string
	val  any
	mk   func() any
}

// wireMessages returns representative instances of the three
// handshake-path messages, shaped like real mainnet traffic.
func wireMessages() []wireMsg {
	return []wireMsg{
		{
			name: "hello",
			val: &devp2p.Hello{
				Version:    devp2p.Version,
				Name:       "Geth/v1.8.11-stable/linux-amd64/go1.10",
				Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
				ListenPort: 30303,
				ID:         enode.ID{0x41, 0x76, 0x02},
			},
			mk: func() any { return new(devp2p.Hello) },
		},
		{
			name: "status",
			val: &eth.Status{
				ProtocolVersion: uint32(eth.Version63),
				NetworkID:       1,
				TD:              new(big.Int).SetBytes([]byte{0x02, 0x3c, 0x91, 0xd7, 0xbb, 0x2e, 0x8f, 0x41, 0x55, 0xaa}),
				BestHash:        chain.Hash{0x7d, 0x5a},
				GenesisHash:     chain.Hash{0xd4, 0xe5},
			},
			mk: func() any { return new(eth.Status) },
		},
		{
			name: "discv4-ping",
			val: &discv4.Ping{
				Version:    discv4.Version,
				From:       discv4.Endpoint{IP: net.IP{10, 3, 58, 6}, UDP: 30303, TCP: 30303},
				To:         discv4.Endpoint{IP: net.IP{192, 168, 1, 1}, UDP: 30303, TCP: 30303},
				Expiration: 1526987786,
			},
			mk: func() any { return new(discv4.Ping) },
		},
	}
}

func benchMessage(m wireMsg) (*Message, error) {
	enc, err := rlp.EncodeToBytes(m.val)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.name, err)
	}

	rec := &Message{Name: m.name, Bytes: len(enc)}
	rec.Encode = direction(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rlp.EncodeToBytes(m.val); err != nil {
				b.Fatal(err)
			}
		}
	})
	dst := m.mk()
	rec.Decode = direction(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := rlp.DecodeBytes(enc, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	return rec, nil
}

// direction runs one benchmark closure.
func direction(bench func(*testing.B)) Direction {
	r := testing.Benchmark(bench)
	return Direction{
		PlanNsOp:   float64(r.NsPerOp()),
		PlanAllocs: float64(r.AllocsPerOp()),
	}
}

// compareBaseline reports every direction whose allocs/op exceeds the
// committed count or whose ns/op regresses beyond tol, and nudges
// toward a baseline refresh on ns/op improvements beyond tol.
func compareBaseline(res *Result, path string, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Result
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	byName := make(map[string]Message, len(base.Messages))
	for _, m := range base.Messages {
		byName[m.Name] = m
	}
	var errs []error
	for _, m := range res.Messages {
		bm, ok := byName[m.Name]
		if !ok {
			continue
		}
		for _, dir := range []struct {
			name      string
			got, want Direction
		}{
			{"encode", m.Encode, bm.Encode},
			{"decode", m.Decode, bm.Decode},
		} {
			if dir.got.PlanAllocs > dir.want.PlanAllocs {
				errs = append(errs, fmt.Errorf("%s %s: %.0f allocs/op exceeds the committed %.0f",
					m.Name, dir.name, dir.got.PlanAllocs, dir.want.PlanAllocs))
			}
			got, want := dir.got.PlanNsOp, dir.want.PlanNsOp
			if want <= 0 {
				continue
			}
			ratio := got / want
			switch {
			case ratio > 1+tol:
				errs = append(errs, fmt.Errorf("%s %s: %.0f ns/op is %.0f%% above baseline %.0f (tolerance %.0f%%)",
					m.Name, dir.name, got, (ratio-1)*100, want, tol*100))
			case ratio < 1-tol:
				fmt.Fprintf(os.Stderr, "note: %s %s %.0f ns/op beats baseline %.0f by %.0f%% — refresh BENCH_wire.json\n",
					m.Name, dir.name, got, want, (1-ratio)*100)
			}
		}
	}
	return errors.Join(errs...)
}
