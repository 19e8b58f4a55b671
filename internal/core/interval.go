package core

import "fmt"

// bench/trace.go's traced estimator wraps both methods in this file.

// CredibleInterval returns the central credible interval containing
// `width` posterior mass for the request's selectivity: the posterior
// quantiles at (1-width)/2 and 1-(1-width)/2. Both inversions go through
// the shared QuantileCache, so repeated plans over the same synopsis
// observations pay the bisection only once.
func (e *BayesEstimator) CredibleInterval(req Request, width float64) (lo, hi float64, err error) {
	if !(width > 0 && width < 1) {
		return 0, 0, fmt.Errorf("core: credible interval width %g outside (0, 1)", width)
	}
	k, n, _, err := e.Observe(req)
	if err != nil {
		return 0, 0, err
	}
	post, err := e.Prior.Posterior(k, n)
	if err != nil {
		return 0, 0, err
	}
	tail := (1 - width) / 2
	lo, err = e.Quantiles.Quantile(post, tail)
	if err != nil {
		return 0, 0, err
	}
	hi, err = e.Quantiles.Quantile(post, 1-tail)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// PointEstimate returns the posterior-mean selectivity (k+a)/(n+a+b) for
// the request. It evaluates the predicate on the synopsis (the same
// Observe the full estimate performs) but skips the inverse-CDF.
func (e *BayesEstimator) PointEstimate(req Request) (float64, error) {
	k, n, _, err := e.Observe(req)
	if err != nil {
		return 0, err
	}
	return (float64(k) + e.Prior.A) / (float64(n) + e.Prior.A + e.Prior.B), nil
}
