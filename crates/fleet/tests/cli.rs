//! The `jetsim-fleet` command line, parsed through the shared flag table
//! plus the fleet's own `--router` and `--network` rows.

use jetsim::cli::{self, Tool};
use jetsim_fleet::{NetworkModel, CLI_FLAGS};
use jetsim_serve::ScenarioSpec;

fn fleet(argv: &[&str]) -> Result<ScenarioSpec, String> {
    let argv = argv.iter().map(|s| s.to_string());
    cli::parse(Tool::Fleet, CLI_FLAGS, argv)?.scenario()
}

#[test]
fn help_names_every_fleet_row() {
    let help = cli::parse(Tool::Fleet, CLI_FLAGS, ["--help".to_string()]).unwrap_err();
    let rows = cli::FLAGS.iter().chain(CLI_FLAGS);
    for flag in rows.filter(|flag| flag.tools.contains(&Tool::Fleet)) {
        assert!(
            help.contains(&format!("\n  {} ", flag.name))
                || help.contains(&format!("\n  {}[", flag.name)),
            "help misses {}:\n{help}",
            flag.name
        );
    }
    for tool in [Tool::Trtexec, Tool::Serve] {
        let err = cli::parse(tool, &[], ["--router".to_string(), "rr".to_string()]).unwrap_err();
        assert!(err.starts_with("unknown flag `--router`"), "{err}");
    }
}

#[test]
fn router_alias_dumps_canonically() {
    let sc = fleet(&["--tenant", "resnet50:int8:1", "--router", "lq"]).unwrap();
    assert!(sc.to_toml().contains("router = \"least_queue\""), "{sc}");
    let err = fleet(&["--tenant", "resnet50:int8:1", "--router", "chaos"]).unwrap_err();
    assert!(err.starts_with("bad --router: bad router `chaos`"), "{err}");
}

#[test]
fn network_pins_all_six_fields() {
    let path = std::env::temp_dir().join(format!("jetsim_fleet_cli_{}.toml", std::process::id()));
    let base = "[fleet]\nbase_latency = \"9ms\"\ncloud_rtt = \"90ms\"\n\n[[tenants]]\nspec = \"resnet50:int8:1\"\n";
    std::fs::write(&path, base).unwrap();
    let sc = fleet(&["--scenario", path.to_str().unwrap(), "--network", "bw=50"]);
    std::fs::remove_file(&path).ok();
    let table = sc.unwrap().fleet.unwrap();
    let defaults = NetworkModel::default();
    assert_eq!(table.bandwidth_mbps, Some(50.0));
    assert_eq!(
        table.base_latency.as_deref(),
        Some("5ms"),
        "the file's 9ms is overridden"
    );
    assert_eq!(
        table.cloud_rtt.as_deref(),
        Some("30ms"),
        "the file's 90ms is overridden"
    );
    assert_eq!(table.jitter.as_deref(), Some("0s"));
    assert_eq!(table.request_kb, Some(defaults.request_kb));
    assert_eq!(table.response_kb, Some(defaults.response_kb));
}

#[test]
fn flags_round_trip_through_dump_scenario() {
    let flags = fleet(&[
        "--tenant",
        "resnet50:int8:1:1",
        "--arrival",
        "mmpp:600:2400:300:150",
        "--sites",
        "4",
        "--cloud",
        "--router",
        "offload",
        "--slo",
        "100ms",
        "--duration",
        "1s",
        "--warmup",
        "200ms",
        "--cloud-device",
        "cloud-a40",
        "--network",
        "base=2ms,jitter=1ms,bw=80",
        "--telemetry-every",
        "50ms",
        "--device",
        "orin-nano",
        "--seed",
        "11",
    ])
    .unwrap();
    let path = std::env::temp_dir().join(format!("jetsim_fleet_dump_{}.toml", std::process::id()));
    std::fs::write(&path, flags.to_toml()).unwrap();
    let replay = fleet(&["--scenario", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(replay.unwrap(), flags);
}
