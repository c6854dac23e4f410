package model

import (
	"fmt"

	"sti/internal/tensor"
)

// ShardWeights is the full-fidelity payload of one vertical slice of one
// layer: one attention head's Q/K/V/O columns plus 1/M of the FFN
// neurons (Table 1). A shard is what gets quantized into K fidelity
// versions and stored on flash.
type ShardWeights struct {
	Layer, Slice int

	Q, K, V *tensor.Matrix // d × d/M (output columns of head Slice)
	O       *tensor.Matrix // d/M × d (input rows fed by head Slice)
	FFN1    *tensor.Matrix // d × dff/M
	FFN2    *tensor.Matrix // dff/M × d
}

// ExtractShard vertically slices shard (layer, slice) out of the full
// weights. By construction the slice is independent: it holds exactly
// the parameters that head `slice` reads and writes.
func (w *Weights) ExtractShard(layer, slice int) *ShardWeights {
	cfg := w.Cfg
	if layer < 0 || layer >= cfg.Layers || slice < 0 || slice >= cfg.Heads {
		panic(fmt.Sprintf("model: ExtractShard(%d,%d) outside %dx%d", layer, slice, cfg.Layers, cfg.Heads))
	}
	l := w.Layers[layer]
	hd, fs := cfg.HeadDim(), cfg.FFNSlice()
	return &ShardWeights{
		Layer: layer, Slice: slice,
		Q:    l.Q.ColSlice(slice*hd, (slice+1)*hd),
		K:    l.K.ColSlice(slice*hd, (slice+1)*hd),
		V:    l.V.ColSlice(slice*hd, (slice+1)*hd),
		O:    l.O.RowSlice(slice*hd, (slice+1)*hd),
		FFN1: l.FFN1.ColSlice(slice*fs, (slice+1)*fs),
		FFN2: l.FFN2.RowSlice(slice*fs, (slice+1)*fs),
	}
}

// InstallShard writes a shard's weights (flat, in Flatten order) back
// into the full weight matrices — the inverse of ExtractShard, used to
// rebuild complete weights from a store's full-fidelity shards.
func (w *Weights) InstallShard(layer, slice int, flat []float32) error {
	cfg := w.Cfg
	s, err := UnflattenShard(cfg, layer, slice, flat)
	if err != nil {
		return err
	}
	if layer < 0 || layer >= cfg.Layers || slice < 0 || slice >= cfg.Heads {
		return fmt.Errorf("model: InstallShard(%d,%d) outside %dx%d", layer, slice, cfg.Layers, cfg.Heads)
	}
	l := w.Layers[layer]
	hd, fs := cfg.HeadDim(), cfg.FFNSlice()
	l.Q.SetColSlice(slice*hd, s.Q)
	l.K.SetColSlice(slice*hd, s.K)
	l.V.SetColSlice(slice*hd, s.V)
	l.O.SetRowSlice(slice*hd, s.O)
	l.FFN1.SetColSlice(slice*fs, s.FFN1)
	l.FFN2.SetRowSlice(slice*fs, s.FFN2)
	return nil
}

// Params returns the number of weights in the shard.
func (s *ShardWeights) Params() int {
	return len(s.Q.Data) + len(s.K.Data) + len(s.V.Data) + len(s.O.Data) + len(s.FFN1.Data) + len(s.FFN2.Data)
}

// Flatten serializes the shard's weights into one flat slice in the
// fixed order Q, K, V, O, FFN1, FFN2 (each row-major). This is the array
// handed to the quantizer; Unflatten is its inverse.
func (s *ShardWeights) Flatten() []float32 {
	out := make([]float32, 0, s.Params())
	for _, m := range []*tensor.Matrix{s.Q, s.K, s.V, s.O, s.FFN1, s.FFN2} {
		out = append(out, m.Data...)
	}
	return out
}

// UnflattenShard reconstructs shard matrices from a flat weight slice
// produced by Flatten (or by dequantizing a stored fidelity version).
func UnflattenShard(cfg Config, layer, slice int, data []float32) (*ShardWeights, error) {
	if want := cfg.ShardParams(); len(data) != want {
		return nil, fmt.Errorf("model: shard payload has %d weights, want %d", len(data), want)
	}
	hd, fs, d := cfg.HeadDim(), cfg.FFNSlice(), cfg.Hidden
	s := &ShardWeights{Layer: layer, Slice: slice}
	off := 0
	take := func(rows, cols int) *tensor.Matrix {
		m := tensor.FromSlice(rows, cols, data[off:off+rows*cols])
		off += rows * cols
		return m
	}
	s.Q = take(d, hd)
	s.K = take(d, hd)
	s.V = take(d, hd)
	s.O = take(hd, d)
	s.FFN1 = take(d, fs)
	s.FFN2 = take(fs, d)
	return s, nil
}

// SubLayer is an assembled layer of width m: the concatenation of m
// shards' weights plus the resident full-fidelity biases and layernorm
// parameters sliced to match.
type SubLayer struct {
	Width int // m, number of shards assembled

	Q, K, V *tensor.Matrix // d × m·hd
	O       *tensor.Matrix // m·hd × d
	FFN1    *tensor.Matrix // d × m·fs
	FFN2    *tensor.Matrix // m·fs × d

	QB, KB, VB []float32 // length m·hd (sliced from resident biases)
	OB         []float32 // length d
	FFN1B      []float32 // length m·fs
	FFN2B      []float32 // length d
	LN1G, LN1B []float32
	LN2G, LN2B []float32
}

// NewSubLayer allocates a sub-layer shaped for width shards. Prepare
// reshapes it, within that capacity, for any assembly up to width
// shards wide, so one allocation can be reused across layers.
func NewSubLayer(cfg Config, width int) *SubLayer {
	hd, fs, d := cfg.HeadDim(), cfg.FFNSlice(), cfg.Hidden
	return &SubLayer{
		Width: width,
		Q:     tensor.New(d, width*hd), K: tensor.New(d, width*hd), V: tensor.New(d, width*hd),
		O:    tensor.New(width*hd, d),
		FFN1: tensor.New(d, width*fs), FFN2: tensor.New(width*fs, d),
		QB: make([]float32, width*hd), KB: make([]float32, width*hd), VB: make([]float32, width*hd),
		FFN1B: make([]float32, width*fs),
	}
}

// Prepare shapes sl, which NewSubLayer allocated at least len(slices)
// wide, as the width-len(slices) assembly of one layer. It reshapes
// sl's matrices within their capacity, gathers the resident biases of
// the given slices in order, and attaches the layer's full-width biases
// and layernorms. It leaves the shard weights alone: the caller writes
// the shard at position i through ShardSegments(cfg, i), and the
// segments of all positions cover every weight of the new shape exactly
// once.
func (sl *SubLayer) Prepare(cfg Config, resident *LayerWeights, slices []int) error {
	m := len(slices)
	if m == 0 || m > cfg.Heads {
		return fmt.Errorf("model: assemble with %d shards (heads=%d)", m, cfg.Heads)
	}
	hd, fs, d := cfg.HeadDim(), cfg.FFNSlice(), cfg.Hidden
	for _, s := range slices {
		if s < 0 || s >= cfg.Heads {
			return fmt.Errorf("model: shard slice %d outside %d heads", s, cfg.Heads)
		}
	}
	sl.Width = m
	reshape(sl.Q, d, m*hd)
	reshape(sl.K, d, m*hd)
	reshape(sl.V, d, m*hd)
	reshape(sl.O, m*hd, d)
	reshape(sl.FFN1, d, m*fs)
	reshape(sl.FFN2, m*fs, d)
	sl.QB, sl.KB, sl.VB, sl.FFN1B = sl.QB[:m*hd], sl.KB[:m*hd], sl.VB[:m*hd], sl.FFN1B[:m*fs]
	for i, s := range slices {
		copy(sl.QB[i*hd:(i+1)*hd], resident.QB[s*hd:(s+1)*hd])
		copy(sl.KB[i*hd:(i+1)*hd], resident.KB[s*hd:(s+1)*hd])
		copy(sl.VB[i*hd:(i+1)*hd], resident.VB[s*hd:(s+1)*hd])
		copy(sl.FFN1B[i*fs:(i+1)*fs], resident.FFN1B[s*fs:(s+1)*fs])
	}
	sl.OB, sl.FFN2B = resident.OB, resident.FFN2B
	sl.LN1G, sl.LN1B, sl.LN2G, sl.LN2B = resident.LN1G, resident.LN1B, resident.LN2G, resident.LN2B
	return nil
}

func reshape(m *tensor.Matrix, rows, cols int) {
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// ShardSegment places one of a shard's six matrices in an assembled
// sub-layer: the shard's flat weights [Off, Off+Rows*Cols) (Flatten
// order) land in Dst as Rows runs of Cols values, Stride apart.
type ShardSegment struct {
	Off, Rows, Cols, Stride int
	Dst                     []float32
}

// Write copies src, the segment's Rows*Cols flat weights, into place.
func (g ShardSegment) Write(src []float32) {
	for r := 0; r < g.Rows; r++ {
		copy(g.Dst[r*g.Stride:r*g.Stride+g.Cols], src[r*g.Cols:(r+1)*g.Cols])
	}
}

// ShardSegments returns where the shard at position i of a prepared
// sub-layer lands, in Flatten order (Q, K, V, O, FFN1, FFN2). Q, K, V
// and FFN1 take a block of columns, one run per row; O and FFN2 take a
// block of whole rows, which is a single run.
func (sl *SubLayer) ShardSegments(cfg Config, i int) [6]ShardSegment {
	hd, fs, d := cfg.HeadDim(), cfg.FFNSlice(), cfg.Hidden
	m, qkv := sl.Width, d*hd
	return [6]ShardSegment{
		{Off: 0, Rows: d, Cols: hd, Stride: m * hd, Dst: sl.Q.Data[i*hd:]},
		{Off: qkv, Rows: d, Cols: hd, Stride: m * hd, Dst: sl.K.Data[i*hd:]},
		{Off: 2 * qkv, Rows: d, Cols: hd, Stride: m * hd, Dst: sl.V.Data[i*hd:]},
		{Off: 3 * qkv, Rows: 1, Cols: hd * d, Stride: hd * d, Dst: sl.O.Data[i*hd*d:]},
		{Off: 4 * qkv, Rows: d, Cols: fs, Stride: m * fs, Dst: sl.FFN1.Data[i*fs:]},
		{Off: 4*qkv + d*fs, Rows: 1, Cols: fs * d, Stride: fs * d, Dst: sl.FFN2.Data[i*fs*d:]},
	}
}

// AssembleSubLayer builds an executable layer of width len(shards) from
// shard payloads (in any fidelity — callers pass dequantized weights)
// plus the resident miscellaneous parameters of the original layer.
// All shards must come from the same layer; their slice indexes determine
// which resident bias columns are attached.
func AssembleSubLayer(cfg Config, resident *LayerWeights, shards []*ShardWeights) (*SubLayer, error) {
	m := len(shards)
	if m == 0 || m > cfg.Heads {
		return nil, fmt.Errorf("model: assemble with %d shards (heads=%d)", m, cfg.Heads)
	}
	slices := make([]int, m)
	for i, s := range shards {
		if s.Layer != shards[0].Layer {
			return nil, fmt.Errorf("model: assembling shards from layers %d and %d", shards[0].Layer, s.Layer)
		}
		slices[i] = s.Slice
	}
	sl := NewSubLayer(cfg, m)
	if err := sl.Prepare(cfg, resident, slices); err != nil {
		return nil, err
	}
	for i, s := range shards {
		segs := sl.ShardSegments(cfg, i)
		for k, src := range [6]*tensor.Matrix{s.Q, s.K, s.V, s.O, s.FFN1, s.FFN2} {
			if len(src.Data) != segs[k].Rows*segs[k].Cols {
				return nil, fmt.Errorf("model: shard (%d,%d) matrix %d has %d weights, want %d", s.Layer, s.Slice, k, len(src.Data), segs[k].Rows*segs[k].Cols)
			}
			segs[k].Write(src.Data)
		}
	}
	return sl, nil
}
