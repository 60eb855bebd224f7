//! Integration tests for the `jetsim-serve` CLI binary: resilience flag
//! parsing and fault-injection determinism.

use std::process::Command;

fn serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jetsim-serve"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A short faulted, fully-resilient run on the Jetson Nano.
fn chaos_args(fault_seed: &str) -> Vec<String> {
    [
        "--tenant",
        "resnet50:fp16:1:2",
        "--arrival",
        "poisson:40",
        "--device",
        "jetson-nano",
        "--slo",
        "100ms",
        "--warmup",
        "200ms",
        "--duration",
        "1s",
        "--deadline",
        "400ms",
        "--retry=3",
        "--recovery=2",
        "--breaker=shed",
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([format!("--faults={fault_seed}")])
    .collect()
}

#[test]
fn faulted_resilient_runs_are_deterministic() {
    let args: Vec<String> = chaos_args("99");
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let a = serve(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = serve(&args);
    assert!(b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "same seed and fault plan must emit byte-identical JSON reports"
    );
    // The report carries the resilience accounting fields.
    let json = String::from_utf8_lossy(&a.stdout);
    for field in [
        "deadline_hit_rate",
        "retry_amplification",
        "replica_restarts",
        "killed_inflight",
        "breaker_rejected",
    ] {
        assert!(json.contains(field), "report missing `{field}`: {json}");
    }
}

#[test]
fn a_different_fault_seed_changes_the_timeline() {
    let a_args: Vec<String> = chaos_args("99");
    let b_args: Vec<String> = chaos_args("100");
    let a = serve(&a_args.iter().map(String::as_str).collect::<Vec<_>>());
    let b = serve(&b_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(a.status.success() && b.status.success());
    assert_ne!(
        a.stdout, b.stdout,
        "a different fault seed must draw a different fault timeline"
    );
}

#[test]
fn resilience_flags_parse_with_defaults_and_values() {
    let out = serve(&[
        "--tenant",
        "resnet50:int8:1",
        "--arrival",
        "poisson:100",
        "--duration",
        "500ms",
        "--warmup",
        "100ms",
        "--retry",
        "--hedge=auto",
        "--breaker=brownout",
        "--recovery",
        "--deadline",
        "200ms",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_resilience_flags_fail_cleanly() {
    let out = serve(&["--tenant", "resnet50:int8:1", "--breaker=sometimes"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--breaker"), "{stderr}");

    let out = serve(&["--tenant", "resnet50:int8:1", "--retry=many"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--retry"), "{stderr}");
}

#[test]
fn out_of_range_inputs_are_rejected_with_the_field_named() {
    for (args, needle) in [
        (
            &["--tenant", "resnet50:int8:0:2"][..],
            "batch must be at least 1",
        ),
        (
            &["--tenant", "resnet50:int8:1:0"][..],
            "count must be at least 1",
        ),
        (
            &["--tenant", "model=resnet50,precision=int8,batch=0"][..],
            "batch must be at least 1",
        ),
        (
            &["--tenant", "model=resnet50,precision=int8,batch=1,count=0"][..],
            "count must be at least 1",
        ),
        (
            &["--tenant", "resnet50:int8:1", "--queue-cap", "0"][..],
            "--queue-cap: must be at least 1",
        ),
        (
            &["--tenant", "resnet50:int8:1", "--autoscale", "1:0"][..],
            "--autoscale: MAX: must be at least 1",
        ),
    ] {
        let out = serve(&[args, &["--duration", "300ms", "--warmup", "100ms"]].concat());
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn optional_values_take_only_the_equals_form() {
    let out = serve(&["--tenant", "resnet50:int8:1", "--retry", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `0`"), "{stderr}");
}
