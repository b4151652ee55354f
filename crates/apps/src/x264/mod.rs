//! `x264` — H.264-style video encoding proxy (PARSEC; paper
//! Section 5.2).
//!
//! Encodes a synthetic video with the transform-quantize-reconstruct
//! core of a block codec: 8×8 DCT, frequency-weighted quantization at
//! quantizer `QP` (the Accordion input), dequantization and inverse
//! DCT. A smaller QP keeps more coefficients — more compression work
//! and higher fidelity, the paper's "complex" dependence of both
//! problem size and quality on the knob. Quality is SSIM-based
//! (Table 3: SSIM matches human perception better than PSNR). The
//! first frame is intra coded; subsequent frames are P-frames with
//! motion-compensated prediction ([`motion`]) against the previous
//! reconstructed frame and DCT-coded residuals. The
//! Drop hook prohibits the encoding of a macroblock (the paper's
//! `x264_slice_write` hook): dropped macroblocks are reconstructed
//! from the co-located block of the previous reconstructed frame.

pub mod motion;
pub mod transform;

use crate::app::RmsApp;
use crate::config::{thread_range, RunConfig};
use accordion_pool::Memo;
use accordion_sim::fault::CorruptionMode;
use accordion_sim::workload::Workload;
use accordion_stats::metrics::ssim;
use std::sync::LazyLock;
use transform::{dct2, dequantize, idct2, quantize};

const MB: usize = 8;

/// Most problem sizes [`SIZE_MEMO`] keeps. The knobs reached in-tree
/// are the hyper QP and `knob_for_size`'s probes, nine per sweep
/// window with the sweep and the default QP among them: 58 distinct
/// knobs at most, fewer when a search stops at an exact size match.
/// Past 128 the least recently used size is evicted.
const SIZE_MEMO_CAP: usize = 128;

/// Key of a clean-encode problem size: `(side, frames, qp.to_bits())`.
type SizeKey = (usize, usize, u64);

/// Problem sizes measured on the clean encode, `apps.x264_size_cache`.
/// The encode is a pure function of its key, so an entry is never
/// stale; distinct knobs encode concurrently.
static SIZE_MEMO: LazyLock<Memo<SizeKey, f64>> =
    LazyLock::new(|| Memo::new("apps.x264_size_cache", SIZE_MEMO_CAP));

/// The x264 kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct X264 {
    /// Frame side length in pixels (must be a multiple of 8).
    pub side: usize,
    /// Number of frames.
    pub frames: usize,
}

impl X264 {
    /// Motion-search window (±pixels) for P-frame prediction.
    const SEARCH_RANGE: i32 = 3;

    /// Paper-like defaults: a short 64×64 clip.
    pub fn paper_default() -> Self {
        Self {
            side: 64,
            frames: 6,
        }
    }

    /// Synthetic source video: a moving bright disc over a drifting
    /// sinusoidal background — deterministic, with motion so that
    /// dropped macroblocks (reconstructed from the previous frame)
    /// visibly mismatch.
    pub fn source_frame(&self, f: usize) -> Vec<f64> {
        let n = self.side;
        let t = f as f64;
        let mut img = vec![0.0; n * n];
        for y in 0..n {
            for x in 0..n {
                let fx = x as f64 / n as f64;
                let fy = y as f64 / n as f64;
                let mut v = 110.0
                    + 60.0 * (2.0 * std::f64::consts::PI * (fx * 2.0 + 0.015 * t)).sin()
                    + 30.0 * (2.0 * std::f64::consts::PI * (fy * 3.0 - 0.010 * t)).cos();
                let cx = 0.3 + 0.02 * t;
                let cy = 0.4 + 0.012 * t;
                if (fx - cx).powi(2) + (fy - cy).powi(2) < 0.02 {
                    v = 240.0;
                }
                img[y * n + x] = v.clamp(0.0, 255.0);
            }
        }
        img
    }

    fn macroblocks_per_frame(&self) -> usize {
        (self.side / MB) * (self.side / MB)
    }

    /// Encoding work at quantizer `qp`: a constant per-macroblock floor
    /// (motion search + transforms) plus coefficient-coding work that
    /// tracks the retained-coefficient count, measured on the clean
    /// deterministic encode — a pure function of `(side, frames, qp)`,
    /// which is what lets [`SIZE_MEMO`] keep it. The QP dependence is
    /// the paper's Table 3 "complex": it flattens at coarse quantizers
    /// (the floor) and steepens at fine ones.
    fn clean_encode_size(&self, qp: f64) -> f64 {
        const MB_BASE_WORK: f64 = 64.0;
        const COEF_WORK: f64 = 16.0;
        let (_, nz) = self.encode(qp, &RunConfig::default_run(1));
        let mbs_total = (self.frames * self.macroblocks_per_frame()) as f64;
        mbs_total * MB_BASE_WORK + nz as f64 * COEF_WORK
    }

    /// [`Self::clean_encode_size`] through `memo`.
    fn size_in(&self, memo: &Memo<SizeKey, f64>, qp: f64) -> f64 {
        memo.get_or_insert_with(&(self.side, self.frames, qp.to_bits()), || {
            self.clean_encode_size(qp)
        })
    }

    /// Encodes the clip, returning `(reconstruction, nonzero_coeffs)`.
    fn encode(&self, qp: f64, cfg: &RunConfig) -> (Vec<f64>, usize) {
        let n = self.side;
        let mbs = self.macroblocks_per_frame();
        let mb_per_row = n / MB;
        let mut recon = vec![0.0; n * n * self.frames];
        let mut nonzero_total = 0;
        let mut corrupt_rng = cfg.seed_stream().stream("x264-corrupt", 0);

        // Slice assignment rotates across frames (as threaded encoders
        // do), so a dropped thread conceals different macroblocks each
        // frame instead of blanking the same region forever.
        let mut owner_of = vec![0usize; mbs];
        for t in 0..cfg.threads {
            let (m0, m1) = thread_range(mbs, cfg.threads, t);
            for slot in owner_of.iter_mut().take(m1).skip(m0) {
                *slot = t;
            }
        }
        for f in 0..self.frames {
            let src = self.source_frame(f);
            for t in 0..cfg.threads {
                let dropped = cfg.is_dropped(t);
                for m in (0..mbs).filter(|m| owner_of[(m + f * 7) % mbs] == t) {
                    let bx = (m % mb_per_row) * MB;
                    let by = (m / mb_per_row) * MB;
                    if dropped {
                        // Macroblock encoding prohibited: reconstruct
                        // from the previous frame (mid-gray for the
                        // first frame).
                        for y in 0..MB {
                            for x in 0..MB {
                                let dst = f * n * n + (by + y) * n + (bx + x);
                                recon[dst] = if f == 0 {
                                    128.0
                                } else {
                                    recon[(f - 1) * n * n + (by + y) * n + (bx + x)]
                                };
                            }
                        }
                        continue;
                    }
                    let mut block = [0.0; MB * MB];
                    for y in 0..MB {
                        for x in 0..MB {
                            block[y * MB + x] = src[(by + y) * n + (bx + x)];
                        }
                    }
                    // Intra for the first frame; motion-compensated
                    // inter prediction against the previous
                    // *reconstructed* frame afterwards (closed loop,
                    // as a real encoder, so no encoder/decoder drift).
                    let prediction = if f == 0 {
                        None
                    } else {
                        Some(motion::search(
                            &src,
                            &recon[(f - 1) * n * n..f * n * n],
                            n,
                            n,
                            bx,
                            by,
                            MB,
                            Self::SEARCH_RANGE,
                        ))
                    };
                    let mut residual = [0.0; MB * MB];
                    for (i, r) in residual.iter_mut().enumerate() {
                        let pred = prediction.as_ref().map_or(0.0, |p| p.block[i]);
                        *r = block[i] - pred;
                    }
                    let coef = dct2(&residual);
                    let (levels, nz) = quantize(&coef, qp);
                    nonzero_total += nz;
                    let rec = idct2(&dequantize(&levels, qp));
                    let mut rec_vals: Vec<f64> = rec
                        .iter()
                        .enumerate()
                        .map(|(i, r)| r + prediction.as_ref().map_or(0.0, |p| p.block[i]))
                        .collect();
                    // End-result corruption at macroblock granularity.
                    let keep = cfg.corrupt_thread_results(t, &mut rec_vals, &mut corrupt_rng);
                    for y in 0..MB {
                        for x in 0..MB {
                            let dst = f * n * n + (by + y) * n + (bx + x);
                            recon[dst] = if keep {
                                rec_vals[y * MB + x].clamp(0.0, 255.0)
                            } else if f == 0 {
                                128.0
                            } else {
                                recon[(f - 1) * n * n + (by + y) * n + (bx + x)]
                            };
                        }
                    }
                }
            }
        }
        (recon, nonzero_total)
    }
}

impl RmsApp for X264 {
    fn name(&self) -> &'static str {
        "x264"
    }

    fn knob_name(&self) -> &'static str {
        "quantizer (QP)"
    }

    fn default_knob(&self) -> f64 {
        16.0
    }

    fn knob_sweep(&self) -> Vec<f64> {
        // Decreasing QP ⇒ more retained coefficients ⇒ larger problem.
        vec![48.0, 40.0, 32.0, 24.0, 16.0, 12.0, 8.0, 5.0]
    }

    fn hyper_knob(&self) -> f64 {
        1.0
    }

    fn problem_size(&self, knob: f64) -> f64 {
        self.size_in(&SIZE_MEMO, knob)
    }

    fn run(&self, knob: f64, cfg: &RunConfig) -> Vec<f64> {
        self.encode(knob, cfg).0
    }

    fn quality(&self, output: &[f64], reference: &[f64]) -> f64 {
        // Mean SSIM across frames against the reference
        // reconstruction.
        let n = self.side;
        let per_frame = n * n;
        let mut total = 0.0;
        for f in 0..self.frames {
            total += ssim(
                &output[f * per_frame..(f + 1) * per_frame],
                &reference[f * per_frame..(f + 1) * per_frame],
                n,
                n,
                255.0,
            );
        }
        total / self.frames as f64
    }

    fn workload(&self, knob: f64) -> Workload {
        Workload {
            work_units: self.problem_size(knob),
            // Per retained coefficient: its share of DCT/IDCT and
            // entropy-coding-like work.
            instructions_per_unit: 60.0,
            mem_accesses_per_instr: 0.01,
            private_hit_rate: 0.94,
            cluster_hit_rate: 0.90,
        }
    }
}

/// Re-exported so harness code can name the corruption modes x264
/// sweeps without importing `accordion-sim` directly.
pub type X264CorruptionMode = CorruptionMode;

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> X264 {
        X264::paper_default()
    }

    #[test]
    fn lower_qp_means_more_work_and_quality() {
        let a = app();
        let cfg = RunConfig::default_run(8);
        assert!(a.problem_size(4.0) > a.problem_size(32.0));
        let hyper = a.run(a.hyper_knob(), &cfg);
        let q_hi = a.quality(&a.run(8.0, &cfg), &hyper);
        let q_lo = a.quality(&a.run(40.0, &cfg), &hyper);
        assert!(q_hi > q_lo, "QP8 {q_hi} vs QP40 {q_lo}");
    }

    #[test]
    fn reconstruction_is_close_to_source_at_low_qp() {
        let a = app();
        let recon = a.run(2.0, &RunConfig::default_run(8));
        let src: Vec<f64> = (0..a.frames).flat_map(|f| a.source_frame(f)).collect();
        let q = a.quality(&recon, &src);
        assert!(
            q > 0.95,
            "near-lossless encode should match source, ssim={q}"
        );
    }

    #[test]
    fn dropped_macroblocks_hurt_quality() {
        let a = app();
        let hyper = a.run(a.hyper_knob(), &RunConfig::default_run(8));
        let q_full = a.quality(&a.run(16.0, &RunConfig::default_run(8)), &hyper);
        let q_half = a.quality(&a.run(16.0, &RunConfig::with_drop(8, 0.5)), &hyper);
        assert!(q_half < q_full);
        assert!(
            q_half > 0.2,
            "previous-frame concealment keeps some quality"
        );
    }

    #[test]
    fn output_covers_all_frames() {
        let a = app();
        let out = a.run(16.0, &RunConfig::default_run(4));
        assert_eq!(out.len(), a.side * a.side * a.frames);
        assert!(out.iter().all(|v| (0.0..=255.0).contains(v)));
    }

    #[test]
    fn deterministic_runs() {
        let a = app();
        let cfg = RunConfig::default_run(16);
        assert_eq!(a.run(20.0, &cfg), a.run(20.0, &cfg));
    }

    #[test]
    fn memoized_size_equals_a_direct_encode_cold_and_warm() {
        let a = app();
        let mut knobs = a.knob_sweep();
        knobs.extend([a.default_knob(), a.hyper_knob()]);
        // A private memo starts empty, so its first call is cold.
        let memo = Memo::new("test.x264_size_cache.cold_warm", SIZE_MEMO_CAP);
        for qp in knobs {
            let direct = a.clean_encode_size(qp).to_bits();
            assert_eq!(a.size_in(&memo, qp).to_bits(), direct, "cold QP {qp}");
            assert_eq!(a.size_in(&memo, qp).to_bits(), direct, "warm QP {qp}");
            assert_eq!(a.problem_size(qp).to_bits(), direct, "process memo QP {qp}");
            assert_eq!(a.problem_size(qp).to_bits(), direct, "process memo QP {qp}");
        }
    }

    #[test]
    fn other_geometries_get_their_own_sizes() {
        let paper = app();
        let small = X264 {
            side: 32,
            frames: 3,
        };
        for qp in small.knob_sweep() {
            let size = small.problem_size(qp);
            assert_eq!(size.to_bits(), small.clean_encode_size(qp).to_bits());
            assert!(size < paper.problem_size(qp), "QP {qp}: stale paper size");
        }
    }

    #[test]
    fn memo_stays_bounded_and_exact_past_its_capacity() {
        let tiny = X264 {
            side: 16,
            frames: 2,
        };
        let memo = Memo::new("test.x264_size_cache.bounded", SIZE_MEMO_CAP);
        let knobs: Vec<f64> = (0..SIZE_MEMO_CAP + 16)
            .map(|i| 1.0 + i as f64 * 0.25)
            .collect();
        for _pass in 0..2 {
            for &qp in &knobs {
                assert_eq!(
                    tiny.size_in(&memo, qp).to_bits(),
                    tiny.clean_encode_size(qp).to_bits(),
                    "QP {qp}"
                );
            }
            assert_eq!(memo.len(), SIZE_MEMO_CAP);
        }
        // Past capacity the memo evicts rather than refusing inserts.
        let stats = memo.stats();
        assert_eq!(stats.evictions, stats.misses - SIZE_MEMO_CAP as u64);
    }
}
