package train

import (
	"math"

	"sti/internal/model"
	"sti/internal/tensor"
)

// layerCache stores everything a layer's backward pass needs.
type layerCache struct {
	xin     *tensor.Matrix   // layer input (L×d)
	q, k, v *tensor.Matrix   // projections after bias (L×d)
	probs   []*tensor.Matrix // per-head attention softmax (L×L); nil for dropped heads
	concat  *tensor.Matrix   // concatenated head outputs (L×d)

	r1              *tensor.Matrix // xin + attention output (pre-LN1)
	ln1Mean, ln1Inv []float32
	y1              *tensor.Matrix // LN1 output

	f1 *tensor.Matrix // FFN inner pre-activation (L×dff)
	g  *tensor.Matrix // GELU output with dropped slices zeroed (L×dff)

	r2              *tensor.Matrix // y1 + FFN output (pre-LN2)
	ln2Mean, ln2Inv []float32
	y2              *tensor.Matrix // LN2 output = next layer input
}

// cache holds the full forward trace of one example.
type cache struct {
	tokens  []int
	mask    []bool
	active  []bool         // heads trained on this example
	embSum  *tensor.Matrix // token+pos embedding (pre-LN)
	embMean []float32
	embInv  []float32
	x0      *tensor.Matrix // embedding LN output
	layers  []*layerCache
	cls     *tensor.Matrix // final CLS row (1×d)
	pooled  *tensor.Matrix // tanh pooler output (1×d)
	logits  []float32
	probs   []float32 // softmax over logits
}

// forward runs a cached training pass. active[h] selects the heads (and
// FFN slices) used for this example; all true = full width.
func forward(w *model.Weights, tokens []int, mask []bool, active []bool) *cache {
	cfg := w.Cfg
	L := len(tokens)
	c := &cache{tokens: tokens, mask: mask, active: active}

	c.embSum = tensor.New(L, cfg.Hidden)
	for i, id := range tokens {
		row := c.embSum.Row(i)
		copy(row, w.Emb.Token.Row(id))
		pos := w.Emb.Position.Row(i)
		for j := range row {
			row[j] += pos[j]
		}
	}
	c.embMean = make([]float32, L)
	c.embInv = make([]float32, L)
	c.x0 = c.embSum.Clone()
	tensor.LayerNormRows(c.x0, w.Emb.LNG, w.Emb.LNB, c.embMean, c.embInv)

	x := c.x0
	hd, fs := cfg.HeadDim(), cfg.FFNSlice()
	scale := float32(1 / math.Sqrt(float64(hd)))
	for l := 0; l < cfg.Layers; l++ {
		lw := w.Layers[l]
		lc := &layerCache{xin: x, probs: make([]*tensor.Matrix, cfg.Heads)}

		lc.q = tensor.New(L, cfg.Hidden)
		lc.k = tensor.New(L, cfg.Hidden)
		lc.v = tensor.New(L, cfg.Hidden)
		tensor.MatMul(lc.q, x, lw.Q)
		tensor.AddBias(lc.q, lw.QB)
		tensor.MatMul(lc.k, x, lw.K)
		tensor.AddBias(lc.k, lw.KB)
		tensor.MatMul(lc.v, x, lw.V)
		tensor.AddBias(lc.v, lw.VB)

		lc.concat = tensor.New(L, cfg.Hidden)
		for h := 0; h < cfg.Heads; h++ {
			if !active[h] {
				continue
			}
			qh := lc.q.ColSlice(h*hd, (h+1)*hd)
			kh := lc.k.ColSlice(h*hd, (h+1)*hd)
			vh := lc.v.ColSlice(h*hd, (h+1)*hd)
			s := tensor.New(L, L)
			tensor.MatMul(s, qh, kh.Transpose())
			tensor.Scale(s, scale)
			if mask != nil {
				for i := 0; i < L; i++ {
					row := s.Row(i)
					for j := range row {
						if !mask[j] {
							row[j] = -1e9
						}
					}
				}
			}
			tensor.SoftmaxRows(s)
			lc.probs[h] = s
			head := tensor.New(L, hd)
			tensor.MatMul(head, s, vh)
			lc.concat.SetColSlice(h*hd, head)
		}

		attn := tensor.New(L, cfg.Hidden)
		tensor.MatMul(attn, lc.concat, lw.O)
		tensor.AddBias(attn, lw.OB)
		lc.r1 = tensor.New(L, cfg.Hidden)
		tensor.Add(lc.r1, attn, x)
		lc.ln1Mean = make([]float32, L)
		lc.ln1Inv = make([]float32, L)
		lc.y1 = lc.r1.Clone()
		tensor.LayerNormRows(lc.y1, lw.LN1G, lw.LN1B, lc.ln1Mean, lc.ln1Inv)

		lc.f1 = tensor.New(L, cfg.FFN)
		tensor.MatMul(lc.f1, lc.y1, lw.FFN1)
		tensor.AddBias(lc.f1, lw.FFN1B)
		lc.g = lc.f1.Clone()
		tensor.GELU(lc.g)
		// Width elasticity: zero the FFN slices of dropped heads.
		for h := 0; h < cfg.Heads; h++ {
			if active[h] {
				continue
			}
			for i := 0; i < L; i++ {
				row := lc.g.Row(i)
				for j := h * fs; j < (h+1)*fs; j++ {
					row[j] = 0
				}
			}
		}

		f2 := tensor.New(L, cfg.Hidden)
		tensor.MatMul(f2, lc.g, lw.FFN2)
		tensor.AddBias(f2, lw.FFN2B)
		lc.r2 = tensor.New(L, cfg.Hidden)
		tensor.Add(lc.r2, f2, lc.y1)
		lc.ln2Mean = make([]float32, L)
		lc.ln2Inv = make([]float32, L)
		lc.y2 = lc.r2.Clone()
		tensor.LayerNormRows(lc.y2, lw.LN2G, lw.LN2B, lc.ln2Mean, lc.ln2Inv)

		c.layers = append(c.layers, lc)
		x = lc.y2
	}

	c.cls = tensor.FromSlice(1, cfg.Hidden, append([]float32(nil), x.Row(0)...))
	c.pooled = tensor.New(1, cfg.Hidden)
	tensor.MatMul(c.pooled, c.cls, w.Pooler)
	tensor.AddBias(c.pooled, w.PoolerB)
	tensor.Tanh(c.pooled)
	logits := tensor.New(1, cfg.Classes)
	tensor.MatMul(logits, c.pooled, w.Cls)
	tensor.AddBias(logits, w.ClsB)
	c.logits = logits.Row(0)

	c.probs = make([]float32, cfg.Classes)
	var max float32 = c.logits[0]
	for _, v := range c.logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range c.logits {
		e := math.Exp(float64(v - max))
		c.probs[i] = float32(e)
		sum += e
	}
	for i := range c.probs {
		c.probs[i] = float32(float64(c.probs[i]) / sum)
	}
	return c
}

// Loss returns the cross-entropy of the cached pass against the label.
func (c *cache) Loss(label int) float64 {
	p := float64(c.probs[label])
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// Predicted returns the argmax class.
func (c *cache) Predicted() int {
	best := 0
	for i, v := range c.logits {
		if v > c.logits[best] {
			best = i
		}
	}
	return best
}
