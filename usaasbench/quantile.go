package main

import (
	"math"
	"slices"
	"time"
)

// pct is the Harrell-Davis estimate of the q-quantile of a duration
// sample: a mean of the order statistics weighted by a Beta((n+1)q,
// (n+1)(1-q)) distribution. A single order statistic moves a lot from run
// to run when few samples lie beyond it (query's p99 over 400 writes has
// four); the weighted mean moves less and tends to it as n grows.
func pct(ds []time.Duration, q float64) time.Duration {
	n := len(ds)
	if n == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	if n == 1 || q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var sum, prev float64
	for i, d := range s {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cdf - prev) * float64(d)
		prev = cdf
	}
	return time.Duration(math.Round(sum))
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for betaInc by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		eps  = 1e-14
		tiny = 1e-300
	)
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
