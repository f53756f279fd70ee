//! Shared argument parsing for the simulation-backed `dustctl` commands,
//! plus the value parsers every `dustctl` flag parser uses.
//!
//! `sim`, `trace`, and `spans` accept the same run flags — the fault
//! profile (`--loss`/`--dup`/`--delay`/`--jitter`), the run shape
//! (`--duration`/`--seed`), and the reporting switches
//! (`--metrics`/`--metrics-json`/`--metrics-prom`/`--slo`) — so this
//! module owns that grammar in one place. Each command declares only its
//! extras here; the three parsers cannot drift apart because there is
//! exactly one.

use crate::commands::SimOptions;
use std::str::FromStr;

/// Parse an integer flag value (`--seed`, `--duration`, `--threads`, …)
/// as an unsigned integer of the target type. A negative, fractional,
/// exponent-form, or out-of-range value is an error — never a silent
/// cast: `9007199254740993` stays exact, `2.7` and `-1` are rejected.
pub fn parse_uint<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?} (expected an unsigned integer)"))
}

/// Parse a `--fat-tree K` arity: an unsigned integer that is even and at
/// least 2, the only shapes a k-port fat-tree has.
pub fn parse_fat_tree_k(value: &str) -> Result<usize, String> {
    let k: usize = parse_uint("--fat-tree", value)?;
    if k < 2 || !k.is_multiple_of(2) {
        return Err(format!("--fat-tree: k must be even and at least 2, got {k}"));
    }
    Ok(k)
}

/// Which simulation-backed subcommand is being parsed. Gates the
/// command-specific flags (`--sweep` and the report switches for `sim`,
/// `--full` for `trace`, `--flow`/`--phase` for `spans`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCommandKind {
    /// `dustctl sim` — the chaos ladder with metrics/SLO reporting.
    Sim,
    /// `dustctl trace` — one run, trace census or full event log.
    Trace,
    /// `dustctl spans` — one run, causal span reconstruction.
    Spans,
}

impl SimCommandKind {
    /// Map a command word to its kind, `None` for non-sim commands.
    pub fn from_name(cmd: &str) -> Option<Self> {
        match cmd {
            "sim" => Some(SimCommandKind::Sim),
            "trace" => Some(SimCommandKind::Trace),
            "spans" => Some(SimCommandKind::Spans),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SimCommandKind::Sim => "sim",
            SimCommandKind::Trace => "trace",
            SimCommandKind::Spans => "spans",
        }
    }
}

/// A fully parsed `sim`/`trace`/`spans` invocation: the shared
/// [`SimOptions`] plus each command's extras (unused extras stay at
/// their defaults).
#[derive(Debug, Clone)]
pub struct SimInvocation {
    /// The shared simulation options.
    pub opts: SimOptions,
    /// `trace --full`: stream the whole decoded event log.
    pub full: bool,
    /// `spans --flow N`: restrict the flow table to one transfer.
    pub flow: Option<u64>,
    /// `spans --phase NAME`: restrict the latency table to one phase.
    pub phase: Option<String>,
}

/// Parse the flags of one simulation-backed command. `args` excludes the
/// command word itself. Errors are plain messages; the caller decides
/// how to render them (the binary appends usage and exits 2).
pub fn parse_sim_invocation(
    kind: SimCommandKind,
    args: &[String],
) -> Result<SimInvocation, String> {
    let mut inv =
        SimInvocation { opts: SimOptions::default(), full: false, flow: None, phase: None };
    let s = &mut inv.opts;
    let mut it = args.iter();
    let text = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let numeric = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<f64, String> {
        let v = text(it, flag)?;
        v.parse().map_err(|_| format!("{flag}: invalid number {v:?}"))
    };
    let uint = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<u64, String> {
        parse_uint(flag, &text(it, flag)?)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            // -- shared by sim, trace, and spans --------------------------
            "--loss" => s.loss = numeric(&mut it, "--loss")?,
            "--dup" => s.dup = numeric(&mut it, "--dup")?,
            "--delay" => s.delay_ms = uint(&mut it, "--delay")?,
            "--jitter" => s.jitter_ms = uint(&mut it, "--jitter")?,
            "--duration" => {
                s.duration_ms = uint(&mut it, "--duration")?;
                s.duration_explicit = true;
            }
            "--seed" => s.seed = uint(&mut it, "--seed")?,
            // -- sim only -------------------------------------------------
            "--scenario" if kind == SimCommandKind::Sim => {
                s.scenario = Some(text(&mut it, "--scenario")?)
            }
            "--sweep" if kind == SimCommandKind::Sim => s.sweep = true,
            "--profile" if kind == SimCommandKind::Sim => {
                s.profile = Some(text(&mut it, "--profile")?)
            }
            "--metrics" if kind == SimCommandKind::Sim => s.metrics = true,
            "--metrics-json" if kind == SimCommandKind::Sim => s.metrics_json = true,
            "--metrics-prom" if kind == SimCommandKind::Sim => s.metrics_prom = true,
            "--slo" if kind == SimCommandKind::Sim => s.slo = Some(text(&mut it, "--slo")?),
            "--postmortem" if kind == SimCommandKind::Sim => {
                s.postmortem = Some(text(&mut it, "--postmortem")?)
            }
            "--inject-breach" if kind == SimCommandKind::Sim => s.inject_breach = true,
            // -- trace / spans extras -------------------------------------
            "--full" if kind == SimCommandKind::Trace => inv.full = true,
            "--flow" if kind == SimCommandKind::Spans => inv.flow = Some(uint(&mut it, "--flow")?),
            "--phase" if kind == SimCommandKind::Spans => {
                inv.phase = Some(text(&mut it, "--phase")?)
            }
            other => return Err(format!("{}: unknown option {other:?}", kind.name())),
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let inv = parse_sim_invocation(SimCommandKind::Sim, &[]).unwrap();
        assert_eq!(inv.opts.duration_ms, 120_000);
        assert!(!inv.full && inv.flow.is_none() && inv.phase.is_none());
    }

    #[test]
    fn shared_flags_parse_for_every_command() {
        for kind in [SimCommandKind::Sim, SimCommandKind::Trace, SimCommandKind::Spans] {
            let inv = parse_sim_invocation(
                kind,
                &argv("--loss 0.2 --dup 0.1 --delay 20 --jitter 100 --duration 60000 --seed 7"),
            )
            .unwrap();
            assert_eq!(inv.opts.loss, 0.2);
            assert_eq!(inv.opts.dup, 0.1);
            assert_eq!(inv.opts.delay_ms, 20);
            assert_eq!(inv.opts.jitter_ms, 100);
            assert_eq!(inv.opts.duration_ms, 60_000);
            assert_eq!(inv.opts.seed, 7);
        }
    }

    #[test]
    fn sim_only_flags_are_rejected_elsewhere() {
        assert!(parse_sim_invocation(SimCommandKind::Sim, &argv("--sweep")).is_ok());
        let err = parse_sim_invocation(SimCommandKind::Trace, &argv("--sweep")).unwrap_err();
        assert!(err.contains("trace: unknown option"), "{err}");
        let err = parse_sim_invocation(SimCommandKind::Spans, &argv("--metrics-json")).unwrap_err();
        assert!(err.contains("spans: unknown option"), "{err}");
        let err =
            parse_sim_invocation(SimCommandKind::Trace, &argv("--profile p.txt")).unwrap_err();
        assert!(err.contains("trace: unknown option"), "{err}");
    }

    #[test]
    fn profile_flag_parses_for_sim() {
        let inv =
            parse_sim_invocation(SimCommandKind::Sim, &argv("--profile prof.folded")).unwrap();
        assert_eq!(inv.opts.profile.as_deref(), Some("prof.folded"));
    }

    #[test]
    fn command_extras_parse() {
        let inv = parse_sim_invocation(SimCommandKind::Trace, &argv("--full")).unwrap();
        assert!(inv.full);
        let inv =
            parse_sim_invocation(SimCommandKind::Spans, &argv("--flow 3 --phase offer")).unwrap();
        assert_eq!(inv.flow, Some(3));
        assert_eq!(inv.phase.as_deref(), Some("offer"));
    }

    #[test]
    fn missing_and_malformed_values_are_loud() {
        let err = parse_sim_invocation(SimCommandKind::Sim, &argv("--loss")).unwrap_err();
        assert_eq!(err, "--loss needs a value");
        let err = parse_sim_invocation(SimCommandKind::Sim, &argv("--seed banana")).unwrap_err();
        assert!(err.contains("invalid number"), "{err}");
    }

    #[test]
    fn integer_flags_are_exact_unsigned_integers() {
        // above 2^53: an f64 round trip would run seed 9007199254740992
        let inv =
            parse_sim_invocation(SimCommandKind::Sim, &argv("--seed 9007199254740993")).unwrap();
        assert_eq!(inv.opts.seed, 9_007_199_254_740_993);
        let inv = parse_sim_invocation(SimCommandKind::Spans, &argv("--flow 18446744073709551615"))
            .unwrap();
        assert_eq!(inv.flow, Some(u64::MAX));
        for flags in [
            "--seed 2.7",
            "--seed -1",
            "--jitter -3",
            "--delay 0.5",
            "--duration 1e30",
            "--duration 18446744073709551616",
        ] {
            let err = parse_sim_invocation(SimCommandKind::Sim, &argv(flags)).unwrap_err();
            assert!(err.contains("expected an unsigned integer"), "{flags}: {err}");
        }
        let err = parse_sim_invocation(SimCommandKind::Spans, &argv("--flow -2")).unwrap_err();
        assert!(err.starts_with("--flow: invalid number"), "{err}");
        // the helper the place/profile/file parsers call directly
        assert_eq!(parse_uint::<usize>("--threads", "8"), Ok(8));
        assert!(parse_uint::<u8>("--hops", "256").is_err(), "out of range for the target");
        assert!(parse_uint::<usize>("--batch", "").is_err());
        let err = parse_uint::<usize>("--max-hop", "-1").unwrap_err();
        assert_eq!(err, "--max-hop: invalid number \"-1\" (expected an unsigned integer)");
    }

    #[test]
    fn fat_tree_arity_must_be_even_and_at_least_two() {
        assert_eq!(parse_fat_tree_k("2"), Ok(2));
        assert_eq!(parse_fat_tree_k("64"), Ok(64));
        for bad in ["0", "1", "3", "63"] {
            let err = parse_fat_tree_k(bad).unwrap_err();
            assert!(err.contains("must be even and at least 2"), "{bad}: {err}");
        }
        assert!(parse_fat_tree_k("-4").unwrap_err().contains("unsigned integer"));
        assert!(parse_fat_tree_k("4.0").is_err());
    }
}
