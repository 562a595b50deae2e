package certify

import (
	"math"
	"sort"
)

// MI is a mutual-information estimate over (secret, observation)
// pairs, in bits.
type MI struct {
	// Plugin is the raw plug-in (maximum-likelihood) estimate from the
	// empirical joint distribution. It is biased upward: with n
	// samples over sparse tables, even independent variables score
	// positive.
	Plugin float64
	// Bits is the Miller–Madow corrected estimate — Plugin minus the
	// first-order bias term (|X|−1 + |Y|−1 − |XY|+1)/(2n·ln 2) applied
	// through the entropy decomposition, clamped at 0.
	Bits float64
	// Upper is the upper confidence bound from a deterministic
	// bootstrap over the sample pairs (never below Bits).
	Upper float64
	// N is the sample count.
	N int
}

// bootstrapResamples is the number of bootstrap resamples behind the
// upper confidence bound, and confidence its one-sided level.
const (
	bootstrapResamples = 200
	confidence         = 0.975
)

// EstimateMI estimates I(secret; observation) from paired samples.
// The bootstrap resamples the pairs with replacement using rng, so
// the confidence bound is a pure function of (samples, rng seed) and
// certification runs replay bit-for-bit.
func EstimateMI(secrets []int, obs []uint64, rng *RNG) MI {
	n := len(secrets)
	if n == 0 || n != len(obs) {
		return MI{}
	}

	// Relabel both margins to dense indices so counting is O(n).
	xs := make([]int, n)
	ys := make([]int, n)
	xIdx := map[int]int{}
	yIdx := map[uint64]int{}
	for i := range secrets {
		xi, ok := xIdx[secrets[i]]
		if !ok {
			xi = len(xIdx)
			xIdx[secrets[i]] = xi
		}
		yi, ok := yIdx[obs[i]]
		if !ok {
			yi = len(yIdx)
			yIdx[obs[i]] = yi
		}
		xs[i], ys[i] = xi, yi
	}
	nx, ny := len(xIdx), len(yIdx)

	point := miMillerMadow(xs, ys, nx, ny, n)
	out := MI{
		Plugin: miPlugin(xs, ys, nx, ny, n),
		Bits:   point,
		Upper:  point,
		N:      n,
	}
	if ny == 1 {
		// A constant channel has no sampling error to bootstrap.
		return out
	}

	// Percentile bootstrap over the pairs. Each resample reuses the
	// dense labels, so a resample's support can only shrink.
	bxs := make([]int, n)
	bys := make([]int, n)
	boots := make([]float64, bootstrapResamples)
	for b := range boots {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bxs[i], bys[i] = xs[j], ys[j]
		}
		boots[b] = miMillerMadow(bxs, bys, nx, ny, n)
	}
	sort.Float64s(boots)
	q := int(math.Ceil(confidence*bootstrapResamples)) - 1
	// The attack's certified value must dominate the point estimate:
	// a percentile that lands below it (possible at small n) is not an
	// upper bound, so take the max.
	out.Upper = math.Max(point, boots[q])
	return out
}

// miPlugin computes the plug-in estimate from dense-labeled pairs.
func miPlugin(xs, ys []int, nx, ny, n int) float64 {
	joint := make([]int, nx*ny)
	mx := make([]int, nx)
	my := make([]int, ny)
	for i := 0; i < n; i++ {
		joint[xs[i]*ny+ys[i]]++
		mx[xs[i]]++
		my[ys[i]]++
	}
	fn := float64(n)
	mi := 0.0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			c := joint[x*ny+y]
			if c == 0 {
				continue
			}
			pxy := float64(c) / fn
			mi += pxy * math.Log2(pxy*fn*fn/(float64(mx[x])*float64(my[y])))
		}
	}
	if mi < 0 {
		return 0
	}
	return mi
}

// miMillerMadow applies the Miller–Madow bias correction through the
// decomposition I = H(X)+H(Y)−H(X,Y): each entropy gains
// (support−1)/(2n·ln 2), so the estimate loses
// (|XY|−1 − (|X|−1) − (|Y|−1))/(2n·ln 2) — the usual downward
// correction, since the joint support is at least each margin's.
// Supports are counted from the sample (occupied cells), not the
// alphabet.
func miMillerMadow(xs, ys []int, nx, ny, n int) float64 {
	seenJoint := make([]bool, nx*ny)
	seenX := make([]bool, nx)
	seenY := make([]bool, ny)
	kx, ky, kxy := 0, 0, 0
	for i := 0; i < n; i++ {
		if !seenX[xs[i]] {
			seenX[xs[i]] = true
			kx++
		}
		if !seenY[ys[i]] {
			seenY[ys[i]] = true
			ky++
		}
		j := xs[i]*ny + ys[i]
		if !seenJoint[j] {
			seenJoint[j] = true
			kxy++
		}
	}
	corr := (float64(kx-1) + float64(ky-1) - float64(kxy-1)) / (2 * float64(n) * math.Ln2)
	mi := miPlugin(xs, ys, nx, ny, n) + corr
	if mi < 0 {
		return 0
	}
	return mi
}
