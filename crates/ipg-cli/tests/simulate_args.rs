//! Argument validation for `ipg simulate`: an injection rate is a
//! probability, so anything that is not a finite number in `[0, 1]` is
//! refused with a contextual error and a non-zero exit before any
//! simulation runs. Degenerate networks run instead of panicking: a
//! one-node network has no destination other than the source, so it
//! injects nothing.

use std::process::Command;

fn simulate(rate: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ipg"))
        .args(["simulate", "hypercube:4", rate])
        .output()
        .expect("spawn ipg")
}

#[test]
fn non_probability_rates_are_refused() {
    for rate in ["nan", "NaN", "inf", "-inf", "-0.1", "1.5", "1e9"] {
        let out = simulate(rate);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "rate `{rate}` was accepted");
        assert!(
            out.stdout.is_empty(),
            "rate `{rate}` printed results: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr.contains(&format!("bad rate `{rate}`")) && stderr.contains("[0, 1]"),
            "rate `{rate}`: unexpected error: {stderr}"
        );
    }
}

#[test]
fn unparsable_rate_is_refused() {
    let out = simulate("fast");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad rate `fast`"));
}

#[test]
fn boundary_rates_run() {
    for rate in ["0", "1"] {
        let out = simulate(rate);
        assert!(
            out.status.success(),
            "rate `{rate}`: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("rate:"), "rate `{rate}`: {stdout}");
    }
}

fn ipg(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ipg"))
        .args(args)
        .output()
        .expect("spawn ipg")
}

#[test]
fn one_node_networks_simulate_without_injecting() {
    let runs: [&[&str]; 4] = [
        &["simulate", "complete:1", "0.5"],
        &["simulate", "star:1", "0.5"],
        &["simulate", "complete:1", "0.5", "--wormhole"],
        &["simulate", "complete:1", "0.5", "--workers", "2"],
    ];
    for args in runs {
        let out = ipg(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "ipg {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("injected:   0\n"), "ipg {args:?}: {stdout}");
    }
}

#[test]
fn one_node_layout_is_refused_with_context() {
    let out = ipg(&["layout", "complete:1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("at least 2 nodes") && stderr.contains("has 1"),
        "unexpected error: {stderr}"
    );
}
