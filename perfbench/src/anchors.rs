//! The paper's reference numbers that `validate_anchors` ledgers, and the
//! simulator's mean absolute relative error against them.
//!
//! The anchors are measured with the profiler's default seed and the
//! paper's windows (300 ms warm-up, 1.5 s measured), whatever the
//! benchmark seed, so the error is a property of the simulator alone: a
//! pure speed-up leaves it identical.

use jetsim::prelude::*;

/// One phase-1 measurement the anchors read.
#[derive(Debug, Clone)]
pub struct AnchorCell {
    pub platform: Platform,
    pub model: ModelGraph,
    pub precision: Precision,
    pub batch: u32,
    pub procs: u32,
}

impl AnchorCell {
    pub fn deployment(&self) -> Deployment {
        Deployment::homogeneous(&self.model, self.precision, self.batch, self.procs)
    }

    /// The profiler for this cell at the paper's windows.
    pub fn profiler(&self) -> Result<DualPhaseProfiler, jetsim::profiler::ProfileError> {
        Ok(DualPhaseProfiler::new(&self.platform)
            .deployment(&self.deployment())?
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(1500)))
    }
}

// Indices into `cells()`.
const FCN_FP16: usize = 0;
const FCN_TF32: usize = 1;
const FCN_INT8: usize = 2;
const FCN_FP32: usize = 3;
const RESNET_INT8: usize = 4;
const RESNET_FP32: usize = 5;
const YOLO_INT8: usize = 6;
const YOLO_FP32: usize = 7;
const YOLO_INT8_P8: usize = 8;
const NANO_YOLO_FP16: usize = 9;
const NANO_RESNET_FP16: usize = 10;

/// The eleven phase-1 cells behind the anchors, in index order.
pub fn cells() -> Vec<AnchorCell> {
    let orin = Platform::orin_nano();
    let nano = Platform::jetson_nano();
    let cell = |platform: &Platform, model: ModelGraph, precision, procs| AnchorCell {
        platform: platform.clone(),
        model,
        precision,
        batch: 1,
        procs,
    };
    vec![
        cell(&orin, zoo::fcn_resnet50(), Precision::Fp16, 1),
        cell(&orin, zoo::fcn_resnet50(), Precision::Tf32, 1),
        cell(&orin, zoo::fcn_resnet50(), Precision::Int8, 1),
        cell(&orin, zoo::fcn_resnet50(), Precision::Fp32, 1),
        cell(&orin, zoo::resnet50(), Precision::Int8, 1),
        cell(&orin, zoo::resnet50(), Precision::Fp32, 1),
        cell(&orin, zoo::yolov8n(), Precision::Int8, 1),
        cell(&orin, zoo::yolov8n(), Precision::Fp32, 1),
        cell(&orin, zoo::yolov8n(), Precision::Int8, 8),
        cell(&nano, zoo::yolov8n(), Precision::Fp16, 1),
        cell(&nano, zoo::resnet50(), Precision::Fp16, 1),
    ]
}

type Reading = fn(&[JetsonStatsReport]) -> f64;

/// `(id, paper value, simulated value)` for every anchor.
const ANCHORS: &[(&str, f64, Reading)] = &[
    ("fcn-fp16-orin", 18.57, |r| r[FCN_FP16].throughput),
    ("fcn-tf32-orin", 6.86, |r| r[FCN_TF32].throughput),
    ("resnet-int8-speedup", 9.75, |r| {
        r[RESNET_INT8].throughput / r[RESNET_FP32].throughput
    }),
    ("fcn-int8-speedup", 12.0, |r| {
        r[FCN_INT8].throughput / r[FCN_FP32].throughput
    }),
    ("yolo-int8-speedup", 3.0, |r| {
        r[YOLO_INT8].throughput / r[YOLO_FP32].throughput
    }),
    ("yolo-tp-b1", 210.0, |r| r[YOLO_INT8].throughput),
    ("yolo-tp-p8", 10.0, |r| {
        r[YOLO_INT8_P8].throughput_per_process
    }),
    ("yolo-nano-fp16", 20.0, |r| r[NANO_YOLO_FP16].throughput),
    ("nano-fp16-j-per-img", 0.125, |r| {
        r[NANO_RESNET_FP16].power_per_image
    }),
    ("fcn-fp16-power", 5.83, |r| r[FCN_FP16].mean_power_w),
    ("fcn-tf32-power", 6.39, |r| r[FCN_TF32].mean_power_w),
];

/// Mean absolute relative error (%) of `reports` (one per cell of
/// `cells()`, in order) against the paper.
pub fn err_pct(reports: &[JetsonStatsReport]) -> f64 {
    let total: f64 = ANCHORS
        .iter()
        .map(|(_, paper, reading)| ((reading(reports) - paper) / paper).abs())
        .sum();
    100.0 * total / ANCHORS.len() as f64
}

/// Measures every anchor cell's phase 1 and returns the error (%).
pub fn measure_err_pct() -> Result<f64, String> {
    let reports = cells()
        .iter()
        .map(|cell| {
            cell.profiler()
                .and_then(|p| p.run_phase1())
                .map(|(report, _)| report)
                .map_err(|e| format!("anchor cell {}: {e}", cell.deployment().label()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(err_pct(&reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_anchor_reads_a_cell() {
        assert_eq!(cells().len(), NANO_RESNET_FP16 + 1);
        assert_eq!(ANCHORS.len(), 11);
    }
}
