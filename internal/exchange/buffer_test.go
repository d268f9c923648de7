package exchange

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewBufferValidation(t *testing.T) {
	if _, err := NewBuffer(-1, 4); err == nil {
		t.Error("negative dim must fail")
	}
	if _, err := NewBuffer(25, 4); err == nil {
		t.Error("oversized dim must fail")
	}
	if _, err := NewBuffer(3, -1); err == nil {
		t.Error("negative block size must fail")
	}
	b, err := NewBuffer(3, 16)
	if err != nil || b.Blocks() != 8 || b.BlockSize() != 16 {
		t.Fatalf("NewBuffer: %+v %v", b, err)
	}
	if len(b.Bytes()) != 128 {
		t.Errorf("storage = %d bytes", len(b.Bytes()))
	}
}

func TestZeroByteBlocks(t *testing.T) {
	b, err := NewBuffer(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Block(3)) != 0 {
		t.Error("zero-size blocks must be empty")
	}
	b.FillOutgoing(2)
	if err := b.VerifyIncoming(2); err == nil {
		// With m=0 there is nothing to verify; both must be consistent.
		_ = err
	}
}

func TestBlockBoundsPanic(t *testing.T) {
	b, _ := NewBuffer(2, 4)
	for _, idx := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Block(%d) must panic", idx)
				}
			}()
			b.Block(idx)
		}()
	}
}

func TestBlockViewsAreDisjoint(t *testing.T) {
	b, _ := NewBuffer(2, 4)
	b.Block(1)[0] = 0xAA
	for _, other := range []int{0, 2, 3} {
		if b.Block(other)[0] == 0xAA {
			t.Errorf("write to block 1 leaked into block %d", other)
		}
	}
	// Appending to a block view must not clobber the neighbour (full
	// slice expression caps capacity).
	blk := b.Block(0)
	_ = append(blk, 0xFF)
	if b.Block(1)[0] == 0xFF {
		t.Error("append to block 0 view overwrote block 1")
	}
}

func TestFillVerifyRoundTrip(t *testing.T) {
	b, _ := NewBuffer(3, 8)
	b.FillOutgoing(5)
	// Outgoing layout is NOT the incoming postcondition (except the
	// self block), so verification must fail before an exchange...
	if err := b.VerifyIncoming(5); err == nil {
		t.Error("unexchanged buffer must fail verification")
	}
	// ...unless d = 0, where src == dst.
	b0, _ := NewBuffer(0, 8)
	b0.FillOutgoing(0)
	if err := b0.VerifyIncoming(0); err != nil {
		t.Errorf("0-cube buffer: %v", err)
	}
}

func TestPayloadByteDiscriminates(t *testing.T) {
	// Different (src,dst,i) triples should rarely collide; check the
	// specific collisions that matter: swapping src/dst and shifting i.
	if PayloadByte(1, 2, 0) == PayloadByte(2, 1, 0) &&
		PayloadByte(1, 2, 1) == PayloadByte(2, 1, 1) &&
		PayloadByte(1, 2, 2) == PayloadByte(2, 1, 2) {
		t.Error("payload does not distinguish src/dst swap")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	b, _ := NewBuffer(3, 4)
	b.FillOutgoing(1)
	positions := []int{1, 4, 6}
	msg := b.Gather(positions)
	if len(msg) != 12 {
		t.Fatalf("gather length %d", len(msg))
	}
	if !bytes.Equal(msg[0:4], b.Block(1)) || !bytes.Equal(msg[4:8], b.Block(4)) {
		t.Error("gather order wrong")
	}
	// Scatter into a second buffer and compare the selected blocks.
	b2, _ := NewBuffer(3, 4)
	if err := b2.Scatter(positions, msg); err != nil {
		t.Fatal(err)
	}
	for _, p := range positions {
		if !bytes.Equal(b2.Block(p), b.Block(p)) {
			t.Errorf("block %d mismatch after scatter", p)
		}
	}
	// Untouched blocks remain zero.
	if !bytes.Equal(b2.Block(0), make([]byte, 4)) {
		t.Error("scatter touched unrelated block")
	}
}

func TestScatterLengthMismatch(t *testing.T) {
	b, _ := NewBuffer(2, 4)
	if err := b.Scatter([]int{0, 1}, make([]byte, 7)); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestFieldPositions(t *testing.T) {
	// d=3, field = bits 1..2 (lo=1, w=2), val=1 → t with Field==1:
	// t = 010 (2) and 011 (3).
	got := FieldPositions(3, 1, 2, 1)
	want := []int{2, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("FieldPositions = %v, want %v", got, want)
	}
	// Width d field: singleton position.
	if got := FieldPositions(3, 0, 3, 5); len(got) != 1 || got[0] != 5 {
		t.Errorf("full-field positions = %v", got)
	}
	// Zero-width field: all positions.
	if got := FieldPositions(3, 0, 0, 0); len(got) != 8 {
		t.Errorf("empty-field positions = %v", got)
	}
}

func TestFieldPositionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range field must panic")
		}
	}()
	FieldPositions(3, 2, 2, 0)
}

func TestFieldPositionsPartitionProperty(t *testing.T) {
	// For any field, the position sets over all vals partition 0..2^d-1.
	f := func(dRaw, loRaw, wRaw uint8) bool {
		d := int(dRaw)%6 + 1
		w := int(wRaw)%d + 1
		lo := int(loRaw) % (d - w + 1)
		seen := make([]int, 1<<uint(d))
		for val := 0; val < 1<<uint(w); val++ {
			ps := FieldPositions(d, lo, w, val)
			if len(ps) != 1<<uint(d-w) {
				return false
			}
			for _, p := range ps {
				seen[p]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// AppendFieldPositions composes positions arithmetically; it must agree
// with a straight scan of all labels, in the same increasing order, and
// reuse the storage it is handed.
func TestAppendFieldPositionsMatchesScan(t *testing.T) {
	scan := func(d, lo, w, val int) []int {
		var out []int
		for p := 0; p < 1<<uint(d); p++ {
			if (p>>lo)&(1<<w-1) == val {
				out = append(out, p)
			}
		}
		return out
	}
	var scratch []int
	for d := 1; d <= 6; d++ {
		for w := 1; w <= d; w++ {
			for lo := 0; lo+w <= d; lo++ {
				for val := 0; val < 1<<uint(w); val++ {
					scratch = AppendFieldPositions(scratch, d, lo, w, val)
					want := scan(d, lo, w, val)
					if len(scratch) != len(want) {
						t.Fatalf("d=%d lo=%d w=%d val=%d: %v, want %v", d, lo, w, val, scratch, want)
					}
					for i := range want {
						if scratch[i] != want[i] {
							t.Fatalf("d=%d lo=%d w=%d val=%d: %v, want %v", d, lo, w, val, scratch, want)
						}
					}
				}
			}
		}
	}
	// Out-of-range field values match no label.
	if got := AppendFieldPositions(scratch, 3, 1, 2, 4); len(got) != 0 {
		t.Errorf("val ≥ 2^w must match nothing, got %v", got)
	}
}

func TestGatherIntoReusesStorage(t *testing.T) {
	b, err := NewBuffer(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.FillOutgoing(5)
	positions := []int{1, 3, 6}
	want := b.Gather(positions)
	scratch := make([]byte, 0, len(positions)*4)
	got := b.GatherInto(scratch, positions)
	if !bytes.Equal(got, want) {
		t.Errorf("GatherInto = %v, want %v", got, want)
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("GatherInto must reuse the scratch backing array when it fits")
	}
	// Undersized scratch grows transparently.
	if small := b.GatherInto(make([]byte, 0, 1), positions); !bytes.Equal(small, want) {
		t.Errorf("undersized scratch: %v, want %v", small, want)
	}
}
