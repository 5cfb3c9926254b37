//! Argument validation for `ipg simulate`: an injection rate is a
//! probability, so anything that is not a finite number in `[0, 1]` is
//! refused with a contextual error and a non-zero exit before any
//! simulation runs.

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
