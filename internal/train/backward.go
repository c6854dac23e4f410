package train

import (
	"math"

	"sti/internal/model"
	"sti/internal/tensor"
)

// backward accumulates ∂loss/∂θ for one cached example into g.
func backward(w *model.Weights, c *cache, label int, g *Grads) {
	cfg := w.Cfg
	L := len(c.tokens)
	hd, fs := cfg.HeadDim(), cfg.FFNSlice()

	// Classification head: dlogits = softmax − one-hot.
	dlogits := tensor.New(1, cfg.Classes)
	for i := range c.probs {
		dlogits.Data[i] = c.probs[i]
	}
	dlogits.Data[label] -= 1

	accumulateATB(g.Cls, c.pooled, dlogits)
	addRow(g.ClsB, dlogits.Row(0))
	dpooled := tensor.New(1, cfg.Hidden)
	tensor.MatMul(dpooled, dlogits, w.Cls.Transpose())

	// tanh pooler.
	for i, p := range c.pooled.Data {
		dpooled.Data[i] *= 1 - float32(p*p)
	}
	accumulateATB(g.Pooler, c.cls, dpooled)
	addRow(g.PoolerB, dpooled.Row(0))
	dcls := tensor.New(1, cfg.Hidden)
	tensor.MatMul(dcls, dpooled, w.Pooler.Transpose())

	// Gradient w.r.t. the final activations: only the CLS row receives
	// signal from the head.
	dx := tensor.New(L, cfg.Hidden)
	copy(dx.Row(0), dcls.Row(0))

	scale := float32(1 / math.Sqrt(float64(hd)))
	for l := cfg.Layers - 1; l >= 0; l-- {
		lw := w.Layers[l]
		lg := g.Layers[l]
		lc := c.layers[l]

		// LN2 backward: dx is ∂/∂y2.
		dr2 := layerNormBackward(dx, lc.r2, lc.ln2Mean, lc.ln2Inv, lw.LN2G, lg.LN2G, lg.LN2B)

		// Residual: r2 = y1 + f2.
		dy1 := dr2.Clone()
		df2 := dr2

		// FFN2.
		accumulateATB(lg.FFN2, lc.g, df2)
		addColSums(lg.FFN2B, df2)
		dg := tensor.New(L, cfg.FFN)
		tensor.MatMul(dg, df2, lw.FFN2.Transpose())

		// GELU (dropped slices carry zero gradient: their g was zeroed,
		// so we zero dg there too).
		df1 := tensor.New(L, cfg.FFN)
		for i := 0; i < L; i++ {
			dgRow, f1Row, dfRow := dg.Row(i), lc.f1.Row(i), df1.Row(i)
			for j := range dfRow {
				h := j / fs
				if !c.active[h] {
					continue
				}
				dfRow[j] = dgRow[j] * tensor.GELUGrad(f1Row[j])
			}
		}

		// FFN1.
		accumulateATB(lg.FFN1, lc.y1, df1)
		addColSums(lg.FFN1B, df1)
		dy1ffn := tensor.New(L, cfg.Hidden)
		tensor.MatMul(dy1ffn, df1, lw.FFN1.Transpose())
		tensor.Add(dy1, dy1, dy1ffn)

		// LN1 backward.
		dr1 := layerNormBackward(dy1, lc.r1, lc.ln1Mean, lc.ln1Inv, lw.LN1G, lg.LN1G, lg.LN1B)

		// Residual: r1 = xin + attn.
		dxin := dr1.Clone()
		dattn := dr1

		// Output projection.
		accumulateATB(lg.O, lc.concat, dattn)
		addColSums(lg.OB, dattn)
		dconcat := tensor.New(L, cfg.Hidden)
		tensor.MatMul(dconcat, dattn, lw.O.Transpose())

		// Attention heads.
		dq := tensor.New(L, cfg.Hidden)
		dk := tensor.New(L, cfg.Hidden)
		dv := tensor.New(L, cfg.Hidden)
		for h := 0; h < cfg.Heads; h++ {
			if !c.active[h] {
				continue
			}
			p := lc.probs[h]
			dhead := dconcat.ColSlice(h*hd, (h+1)*hd)
			vh := lc.v.ColSlice(h*hd, (h+1)*hd)
			qh := lc.q.ColSlice(h*hd, (h+1)*hd)
			kh := lc.k.ColSlice(h*hd, (h+1)*hd)

			// head = P·vh
			dp := tensor.New(L, L)
			tensor.MatMul(dp, dhead, vh.Transpose())
			dvh := tensor.New(L, hd)
			tensor.MatMul(dvh, p.Transpose(), dhead)

			// Softmax backward: ds = P ⊙ (dp − rowsum(dp ⊙ P)).
			ds := tensor.New(L, L)
			for i := 0; i < L; i++ {
				pRow, dpRow, dsRow := p.Row(i), dp.Row(i), ds.Row(i)
				var dot float32
				for j := range pRow {
					dot += float32(dpRow[j] * pRow[j])
				}
				for j := range pRow {
					dsRow[j] = pRow[j] * (dpRow[j] - dot)
				}
			}
			tensor.Scale(ds, scale)

			// s = qh·khᵀ
			dqh := tensor.New(L, hd)
			tensor.MatMul(dqh, ds, kh)
			dkh := tensor.New(L, hd)
			tensor.MatMul(dkh, ds.Transpose(), qh)

			dq.SetColSlice(h*hd, dqh)
			dk.SetColSlice(h*hd, dkh)
			dv.SetColSlice(h*hd, dvh)
		}

		// Q/K/V projections.
		accumulateATB(lg.Q, lc.xin, dq)
		addColSums(lg.QB, dq)
		accumulateATB(lg.K, lc.xin, dk)
		addColSums(lg.KB, dk)
		accumulateATB(lg.V, lc.xin, dv)
		addColSums(lg.VB, dv)

		tmp := tensor.New(L, cfg.Hidden)
		tensor.MatMul(tmp, dq, lw.Q.Transpose())
		tensor.Add(dxin, dxin, tmp)
		tensor.MatMul(tmp, dk, lw.K.Transpose())
		tensor.Add(dxin, dxin, tmp)
		tensor.MatMul(tmp, dv, lw.V.Transpose())
		tensor.Add(dxin, dxin, tmp)

		dx = dxin
	}

	// Embedding layernorm and tables.
	demb := layerNormBackward(dx, c.embSum, c.embMean, c.embInv, w.Emb.LNG, g.EmbLNG, g.EmbLNB)
	for i, id := range c.tokens {
		row := demb.Row(i)
		tok := g.TokenEmb.Row(id)
		pos := g.PosEmb.Row(i)
		for j, v := range row {
			tok[j] += v
			pos[j] += v
		}
	}
}

// layerNormBackward computes dx for y = γ·x̂ + β given dy, the pre-norm
// input x and its row statistics, accumulating dγ/dβ.
func layerNormBackward(dy, x *tensor.Matrix, mean, inv []float32, gamma []float32, dGamma, dBeta []float32) *tensor.Matrix {
	dx := tensor.New(x.Rows, x.Cols)
	n := float32(x.Cols)
	for i := 0; i < x.Rows; i++ {
		xRow, dyRow, dxRow := x.Row(i), dy.Row(i), dx.Row(i)
		mu, is := mean[i], inv[i]
		var meanDxHat, meanDxHatXHat float32
		for j := range dyRow {
			xhat := (xRow[j] - mu) * is
			dGamma[j] += float32(dyRow[j] * xhat)
			dBeta[j] += dyRow[j]
			dxhat := float32(dyRow[j] * gamma[j])
			meanDxHat += dxhat
			meanDxHatXHat += float32(dxhat * xhat)
		}
		meanDxHat /= n
		meanDxHatXHat /= n
		for j := range dxRow {
			xhat := (xRow[j] - mu) * is
			dxhat := float32(dyRow[j] * gamma[j])
			dxRow[j] = is * (dxhat - meanDxHat - float32(xhat*meanDxHatXHat))
		}
	}
	return dx
}

// accumulateATB adds aᵀ·b into dst without overwriting it.
func accumulateATB(dst, a, b *tensor.Matrix) {
	tmp := tensor.New(dst.Rows, dst.Cols)
	tensor.MatMul(tmp, a.Transpose(), b)
	tensor.Add(dst, dst, tmp)
}

func addRow(dst []float32, row []float32) {
	for i, v := range row {
		dst[i] += v
	}
}

func addColSums(dst []float32, m *tensor.Matrix) {
	for r := 0; r < m.Rows; r++ {
		addRow(dst, m.Row(r))
	}
}
