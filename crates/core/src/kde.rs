//! Gaussian kernel density estimation — the smooth density view used for
//! mode detection.
//!
//! Grid evaluation has two paths behind one API:
//!
//! * **exact** — every sample contributes to every grid point,
//!   O(n·points). Always available as [`Kde::grid_exact`]; used
//!   automatically for small samples or very coarse grids.
//! * **linear-binned** — samples are first spread onto the grid with
//!   linear weights, then the binned masses are convolved with a
//!   precomputed kernel table truncated where the Gaussian underflows,
//!   O(n + points·K) with K = truncation radius in grid steps. This is
//!   the standard linear-binning approximation; with bins no wider than
//!   the bandwidth its error is far below statistical noise (bounded by
//!   the accuracy test against the exact path).

use crate::empirical::EmpiricalDist;

/// Samples below this use the exact path: the binned setup cost isn't
/// worth it, and exactness is free.
const BINNED_MIN_SAMPLES: usize = 512;

/// Kernel truncation radius in bandwidths: `exp(-0.5·8.5²) ≈ 2e-16`,
/// below f64 relative precision of the peak.
const KERNEL_CUTOFF_BW: f64 = 8.5;

/// Kernel offset, in bandwidths, beyond which a term is exactly zero:
/// `exp(-0.5·40²) = exp(-800)` underflows to `0.0` (anything below
/// about `exp(-745.2)` does), so the exact path skips those samples
/// without changing a single bit of the sum.
const EXACT_ZERO_Z: f64 = 40.0;

/// A Gaussian KDE over a sample set (borrowed from its
/// [`EmpiricalDist`] — construction copies nothing).
#[derive(Debug, Clone)]
pub struct Kde<'a> {
    samples: &'a [f64],
    bandwidth: f64,
}

impl<'a> Kde<'a> {
    /// Silverman's rule-of-thumb bandwidth
    /// `0.9·min(σ, IQR/1.34)·n^(−1/5)` (floored to a tiny positive value
    /// for degenerate data).
    pub fn silverman_bandwidth(dist: &EmpiricalDist) -> f64 {
        let sigma = dist.std_dev();
        let iqr = dist.iqr();
        let n = dist.n() as f64;
        let spread = if iqr > 0.0 {
            sigma.min(iqr / 1.34)
        } else {
            sigma
        };
        (0.9 * spread * n.powf(-0.2)).max(1e-9 * (1.0 + dist.max().abs()))
    }

    /// KDE with the Silverman bandwidth.
    pub fn new(dist: &'a EmpiricalDist) -> Self {
        Kde {
            samples: dist.samples(),
            bandwidth: Self::silverman_bandwidth(dist),
        }
    }

    /// KDE with an explicit bandwidth.
    pub fn with_bandwidth(dist: &'a EmpiricalDist, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0);
        Kde {
            samples: dist.samples(),
            bandwidth,
        }
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `t` (exact, O(n)).
    pub fn density(&self, t: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        self.samples
            .iter()
            .map(|&x| {
                let z = (t - x) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// The grid span: data range padded by 3 bandwidths on both sides.
    fn span(&self) -> (f64, f64) {
        let lo = self.samples.first().copied().unwrap_or(0.0) - 3.0 * self.bandwidth;
        let hi = self.samples.last().copied().unwrap_or(1.0) + 3.0 * self.bandwidth;
        (lo, hi)
    }

    /// Density evaluated on a uniform grid of `points` spanning the data
    /// (padded by 3 bandwidths on both sides). Returns `(t, f̂(t))` pairs.
    ///
    /// Dispatches to the linear-binned evaluation when the sample is
    /// large and the grid resolves the bandwidth (`dt ≤ h`); otherwise
    /// falls back to [`Kde::grid_exact`].
    pub fn grid(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let (lo, hi) = self.span();
        let dt = (hi - lo) / (points - 1) as f64;
        if self.samples.len() >= BINNED_MIN_SAMPLES && dt <= self.bandwidth && dt > 0.0 {
            self.grid_binned(points, lo, hi)
        } else {
            self.grid_exact(points)
        }
    }

    /// Exact grid evaluation: bit-identical to [`Kde::density`] at every
    /// grid point, and the reference for the binned path's accuracy
    /// bound; callers that need exactness at any size can use it
    /// directly.
    ///
    /// The samples are sorted, so each point sums only the window of
    /// samples within [`EXACT_ZERO_Z`] bandwidths (two binary searches):
    /// every term outside it is exactly `0.0`, and adding `0.0` to a
    /// non-negative partial sum changes nothing. The sum starts from
    /// `+0.0`, so a point whose window is empty gives `+0.0` exactly
    /// like the full sum does. O(points·(log n + window)) instead of
    /// O(n·points) — the difference between milliseconds and seconds
    /// on a heavy-tailed sample with a narrow bandwidth.
    pub fn grid_exact(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let (lo, hi) = self.span();
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        (0..points)
            .map(|i| {
                let t = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let z = |x: f64| (t - x) / h;
                // Skipped samples have z > 40 (below the window) or
                // z < -40 (above it); a NaN z stays inside, as in the
                // full sum.
                let from = self.samples.partition_point(|&x| z(x) > EXACT_ZERO_Z);
                let window = &self.samples[from..];
                let to = window.partition_point(|&x| {
                    z(x).partial_cmp(&-EXACT_ZERO_Z) != Some(std::cmp::Ordering::Less)
                });
                let sum = window[..to]
                    .iter()
                    .map(|&x| {
                        let z = z(x);
                        (-0.5 * z * z).exp()
                    })
                    .fold(0.0, |acc, k| acc + k);
                (t, sum * norm)
            })
            .collect()
    }

    /// Linear-binned grid evaluation, O(n + points·K).
    fn grid_binned(&self, points: usize, lo: f64, hi: f64) -> Vec<(f64, f64)> {
        let h = self.bandwidth;
        let n = self.samples.len();
        let dt = (hi - lo) / (points - 1) as f64;

        // 1) Spread each sample across its two bracketing grid points
        //    with linear weights (mass is conserved exactly).
        let mut mass = vec![0.0f64; points];
        for &x in self.samples {
            let pos = (x - lo) / dt;
            // Samples sit 3 bandwidths inside the span, but clamp anyway
            // against floating-point edge effects.
            let i = (pos.floor() as usize).min(points - 2);
            let frac = (pos - i as f64).clamp(0.0, 1.0);
            mass[i] += 1.0 - frac;
            mass[i + 1] += frac;
        }

        // 2) Gaussian kernel table on grid offsets, truncated where the
        //    tail underflows.
        let kmax = ((KERNEL_CUTOFF_BW * h / dt).ceil() as usize).min(points - 1);
        let kernel: Vec<f64> = (0..=kmax)
            .map(|j| {
                let z = j as f64 * dt / h;
                (-0.5 * z * z).exp()
            })
            .collect();

        // 3) Convolve masses with the kernel.
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * n as f64);
        (0..points)
            .map(|g| {
                let from = g.saturating_sub(kmax);
                let to = (g + kmax).min(points - 1);
                let mut acc = 0.0;
                for (b, &m) in mass[from..=to].iter().enumerate() {
                    acc += m * kernel[(from + b).abs_diff(g)];
                }
                let t = lo + (hi - lo) * g as f64 / (points - 1) as f64;
                (t, acc * norm)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_peaks_at_the_data() {
        let d = EmpiricalDist::new(&[1.0, 1.1, 0.9, 1.05, 0.95, 5.0, 5.1, 4.9]);
        let kde = Kde::with_bandwidth(&d, 0.3);
        // Density near the clusters beats density in the gap.
        assert!(kde.density(1.0) > kde.density(3.0) * 3.0);
        assert!(kde.density(5.0) > kde.density(3.0) * 3.0);
    }

    #[test]
    fn grid_integrates_to_one() {
        let samples: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.618).fract() * 10.0)
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let grid = kde.grid(512);
        let dt = grid[1].0 - grid[0].0;
        let mass: f64 = grid.iter().map(|&(_, f)| f * dt).sum();
        assert!((mass - 1.0).abs() < 0.02, "{mass}");
    }

    #[test]
    fn binned_grid_integrates_to_one() {
        // Large sample → binned path; mass must still be conserved.
        let samples: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.618).fract() * 10.0)
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let grid = kde.grid(512);
        let dt = grid[1].0 - grid[0].0;
        let mass: f64 = grid.iter().map(|&(_, f)| f * dt).sum();
        assert!((mass - 1.0).abs() < 0.02, "{mass}");
    }

    #[test]
    fn binned_grid_matches_exact_within_tolerance() {
        // Trimodal sample big enough to take the binned path; the
        // linear-binning approximation must track the exact KDE to a
        // small fraction of its peak everywhere on the grid.
        let samples: Vec<f64> = (0..3000)
            .map(|i| {
                let u = (i as f64 * 0.6180339887).fract();
                let mode = i % 3;
                10.0 + mode as f64 * 5.0 + (u - 0.5) * 2.0
            })
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let binned = kde.grid(512);
        let exact = kde.grid_exact(512);
        assert_eq!(binned.len(), exact.len());
        let peak = exact.iter().map(|&(_, f)| f).fold(0.0, f64::max);
        assert!(peak > 0.0);
        for (&(tb, fb), &(te, fe)) in binned.iter().zip(&exact) {
            assert!((tb - te).abs() < 1e-9, "grid abscissae differ");
            assert!(
                (fb - fe).abs() <= 2e-3 * peak,
                "binned {fb} vs exact {fe} at t={tb} (peak {peak})"
            );
        }
    }

    #[test]
    fn small_samples_use_the_exact_path_bit_for_bit() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 4.0).collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        assert_eq!(kde.grid(256), kde.grid_exact(256));
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let d = EmpiricalDist::new(&[0.0, 10.0]);
        let wide = Kde::with_bandwidth(&d, 10.0);
        let narrow = Kde::with_bandwidth(&d, 0.1);
        // Narrow KDE sees two separated bumps → low density midway.
        assert!(narrow.density(5.0) < wide.density(5.0));
        assert_eq!(wide.bandwidth(), 10.0);
    }

    #[test]
    fn degenerate_data_does_not_blow_up() {
        let d = EmpiricalDist::new(&[2.0, 2.0, 2.0]);
        let kde = Kde::new(&d);
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.density(2.0).is_finite());
    }

    #[test]
    fn degenerate_large_sample_grid_is_finite() {
        // All-equal samples with the binned path's n: bandwidth is floored
        // tiny, dt > h forces the exact path; nothing may NaN.
        let d = EmpiricalDist::new(&vec![2.0; 1000]);
        let kde = Kde::new(&d);
        for (_, f) in kde.grid(64) {
            assert!(f.is_finite());
        }
    }

    /// `grid` on a sample big enough for the binned path whose grid is
    /// still coarser than the bandwidth: the exact fallback. Asserts
    /// that is the path taken, then that every grid point is bit-equal
    /// to the O(n) `density` reference — the sign of zero included —
    /// and returns how many points sit in empty gaps (exactly zero).
    fn assert_exact_fallback_matches_density(samples: &[f64]) -> usize {
        let d = EmpiricalDist::new(samples);
        // The bandwidth `find_modes` uses.
        let kde = Kde::with_bandwidth(&d, 0.5 * Kde::silverman_bandwidth(&d));
        let points = 512;
        let (lo, hi) = kde.span();
        assert!(samples.len() >= BINNED_MIN_SAMPLES);
        assert!(
            (hi - lo) / (points - 1) as f64 > kde.bandwidth(),
            "dt must exceed h"
        );
        let grid = kde.grid(points);
        assert_eq!(grid, kde.grid_exact(points));
        let mut gaps = 0;
        for &(t, f) in &grid {
            assert_eq!(
                f.to_bits(),
                kde.density(t).to_bits(),
                "t={t}: {f} vs {}",
                kde.density(t)
            );
            gaps += usize::from(f.to_bits() == 0.0f64.to_bits());
        }
        gaps
    }

    #[test]
    fn exact_grid_is_bit_equal_to_density_on_heavy_tails_and_gaps() {
        // Pareto(α = 1.2) quantiles: a dense body and a sparse far tail.
        let n = 2000;
        let pareto: Vec<f64> = (0..n)
            .map(|i| ((i as f64 + 0.5) / n as f64).powf(-1.0 / 1.2))
            .collect();
        // A tight bulk plus two small clusters decades above it.
        let gapped: Vec<f64> = (0..1500)
            .map(|i| [1000.0, 100.0].get(i % 20).copied().unwrap_or(1.0) + (i % 17) as f64 * 1e-3)
            .collect();
        for samples in [pareto, gapped] {
            assert!(assert_exact_fallback_matches_density(&samples) > 0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Random heavy-tailed samples with an outlier far from the bulk:
        /// the windowed exact sum never differs from the full one.
        #[test]
        fn exact_grid_matches_density_on_random_heavy_tails(
            us in proptest::collection::vec(0.0f64..1.0, 512..1200),
            alpha in 0.6f64..2.5,
            outlier in 1e3f64..1e6,
        ) {
            let mut samples: Vec<f64> = us.iter().map(|u| (1.0 - u).powf(-1.0 / alpha)).collect();
            samples.push(outlier);
            assert_exact_fallback_matches_density(&samples);
        }
    }
}
