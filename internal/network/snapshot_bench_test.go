package network

import (
	"bytes"
	"testing"

	"ofar/internal/traffic"
)

// benchWarmNet builds an h=3 OFAR network and warms it to a representative
// mid-load steady state — the state a sweep would checkpoint.
func benchWarmNet(b *testing.B) *Network {
	b.Helper()
	cfg := DefaultConfig(3)
	cfg.Seed = 7
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
	n.Run(500)
	return n
}

// BenchmarkSnapshotEncode measures serializing a warm h=3 network. Reported
// MB/s is image bytes per wall second; compare against the warmup cycles the
// image replaces to judge the warm cache's break-even point.
func BenchmarkSnapshotEncode(b *testing.B) {
	n := benchWarmNet(b)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := n.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures decoding a warm image into an existing
// network — the per-point cost of a warm-cache hit, excluding New().
func BenchmarkSnapshotRestore(b *testing.B) {
	n := benchWarmNet(b)
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	m, err := New(n.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(m.Topo), 0.3, n.Cfg.PacketSize))
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Restore(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotFork measures the full fork cycle — snapshot, rebuild,
// restore, close — the fixed cost of each measurement taken off a held warm
// parent (WarmState.Measure).
func BenchmarkSnapshotFork(b *testing.B) {
	n := benchWarmNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := n.Fork()
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
