//! `dustctl` — run DUST placement decisions from a network-state file.
//!
//! ```sh
//! dustctl example > net.dust
//! dustctl roles net.dust
//! dustctl optimize net.dust --max-hop 6
//! dustctl heuristic net.dust --hops 2
//! dustctl zoned net.dust --zone-size 80 --sweep
//! ```

use dust_cli::args::{parse_fat_tree_k, parse_sim_invocation, parse_uint, SimCommandKind};
use dust_cli::commands::{
    cmd_dot, cmd_heuristic, cmd_optimize, cmd_place, cmd_profile, cmd_sim, cmd_spans, cmd_trace,
    cmd_zoned, roles, Options, PlaceOptions, ProfileOptions,
};
use dust_cli::format::{example_file, parse_nmdb};

const USAGE: &str = "usage: dustctl <command> [file] [options]

commands:
  example                      print a sample network-state file
  roles     <file>             classify nodes (Busy / candidate / neutral)
  optimize  <file>             exact min-cost placement with routes
  place     [file]             placement rounds through the exact or POP-style
                               partitioned solve path; reports rounds/sec
  heuristic <file> [--hops N]  Algorithm 1 (default one-hop reach)
  zoned     <file> --zone-size N [--sweep]
                               per-zone placement, optional cross-zone sweep
  dot       <file>             Graphviz view: roles colored + chosen routes
  sim                          chaos-run the testbed under a lossy control plane,
                               or run a named registry scenario (--scenario)
  trace                        chaos-run with the trace recorder on; print the
                               event census and the run's deterministic digest
  spans                        chaos-run and reconstruct per-flow causal span
                               trees: flow table, per-phase p50/p99, critical path
  profile   <scenario>         run one scenario with the wall-clock profiler on
                               and print the folded-stack profile (counts are
                               deterministic per seed; durations are wall-clock);
                               profile help lists the targets

options (all commands taking a file):
  --c-max X     Busy threshold (default 80)
  --co-max X    candidate threshold (default 50)
  --x-min X     minimum utilization (default 5)
  --max-hop N   hop bound on routes (default unlimited)
  --enumerate   paper-faithful exhaustive path enumeration
  --simplex     use the general simplex instead of the transportation solver
  --threads N   T_rmin pricing threads (default: one per core)

place options (plus the file options above):
  --fat-tree K  solve on a generated k-port fat-tree with seeded random
                states instead of a <file>; K is even and at least 2
                (k = 64 is the paper's scale)
  --partitions K
                split the transport problem into K seeded random
                subproblems solved in parallel (1 = exact; any infeasible
                subproblem falls back to the exact whole-problem solve)
  --batch N     run N placement rounds back-to-back and report rounds/sec
                (generated states re-seed per round with seed+i)
  --seed N      base seed for generated states and the partition shuffle
  --gap         also solve each round exactly; report the objective gap
  --warm        steady-state mode: node states freeze at round 0, links
                drift per round, each solve warm-starts from the previous
                round's bases and re-prices only rows crossing drifted
                links (reports pivots saved and refresh behavior)
  --delta-threshold T
                with --warm, hold the previous placement — skipping the
                solve — when no assignment's re-priced T_rmin degraded by
                more than fraction T
  --profile PATH
                write the solver-side wall-clock profile (simplex, partition
                deal/solve/repair, cost-matrix pricing) to PATH

sim options:
  --scenario NAME
                run a named registry scenario (testbed, chaos, int_burst,
                diurnal, flash_crowd, zone_storm, churn) with its own topology,
                traffic/fault model, duration, and attached SLO spec —
                evaluated by default; --scenario help lists the registry.
                Excludes the fault flags, --sweep, and --inject-breach
  --loss P      drop probability per message, both directions (default 0)
  --dup P       duplication probability per message (default 0)
  --delay MS    base propagation delay per message (default 0)
  --jitter MS   extra uniform delay in 0..=MS, reorders messages (default 0)
  --duration MS simulated time (default 120000)
  --seed N      master seed (default 0)
  --sweep       sweep loss 0/5/10/20/40% instead of a single --loss run
  --metrics     append the recorded metrics (counters/gauges/histograms)
  --metrics-json
                append one stable JSON object per run (includes the trace
                digest and any SLO breaches) — byte-identical per seed
  --metrics-prom
                append the metrics as a Prometheus-style text exposition
  --slo SPEC    evaluate SLO rules online and exit 1 on any breach, e.g.
                convergence<=15000,retransmit_rate<=0.25,abandons<=0,
                overload_dwell<=20000
  --postmortem PATH
                on an invariant violation, write the flight-recorder dump
                (the most recent trace events + digest) to PATH
  --inject-breach
                corrupt the first run's agent census after the fact, to
                exercise the invariant check and post-mortem path
  --profile PATH
                write the hierarchical wall-clock profile (folded stacks
                plus the top self-time table) to PATH after the run

profile options:
  --seed N      master seed (default 0)
  --duration MS override the scenario's default simulated time
  --out PATH    write the artifact to PATH instead of stdout

trace options: same as sim (minus --sweep), plus
  --full        stream the entire decoded event log instead of the census

spans options: same as sim (minus --sweep), plus
  --flow N      show only transfer flow N in the flow table
  --phase NAME  show only NAME in the phase-latency table

integer values (N, MS, K) are unsigned integers: a negative, fractional,
or out-of-range value is a usage error

exit status: 0 on success, 1 when no feasible placement exists, a sim
invariant breaks, or an --slo rule breaches, 2 on usage errors";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("dustctl: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

/// Take the next argument as an unsigned integer flag value, exiting 2
/// when it is missing or not one.
fn uint<T: std::str::FromStr>(it: &mut dyn Iterator<Item = &String>, flag: &str) -> T {
    let v = it.next().unwrap_or_else(|| fail(format!("{flag} needs a value")));
    parse_uint(flag, v).unwrap_or_else(|e| fail(e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else { fail("missing command") };
    if cmd == "example" {
        print!("{}", example_file());
        return;
    }
    if cmd == "-h" || cmd == "--help" {
        println!("{USAGE}");
        return;
    }
    if let Some(kind) = SimCommandKind::from_name(&cmd) {
        let inv = parse_sim_invocation(kind, &args[1..]).unwrap_or_else(|e| fail(e));
        let run_err = |e: String| -> ! {
            eprintln!("dustctl: {e}");
            std::process::exit(1)
        };
        match kind {
            SimCommandKind::Trace => {
                let stdout = std::io::stdout();
                if let Err(e) = cmd_trace(&inv.opts, inv.full, &mut stdout.lock()) {
                    run_err(e)
                }
            }
            SimCommandKind::Spans => match cmd_spans(&inv.opts, inv.flow, inv.phase.as_deref()) {
                Ok(out) => print!("{out}"),
                Err(e) => run_err(e),
            },
            SimCommandKind::Sim => match cmd_sim(&inv.opts) {
                Ok(run) => {
                    print!("{}", run.output);
                    if run.slo_breached {
                        eprintln!("dustctl: SLO breached (see report above)");
                        std::process::exit(1)
                    }
                }
                Err(e) => run_err(e),
            },
        }
        return;
    }
    if cmd == "profile" {
        let Some(name) = args.get(1).cloned().filter(|a| !a.starts_with('-')) else {
            fail("profile needs a scenario name (profile help lists them)")
        };
        let mut popts = ProfileOptions::default();
        let mut it = args.iter().skip(2);
        let value = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| fail(format!("{flag} needs a value"))).clone()
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => popts.seed = uint(&mut it, "--seed"),
                "--duration" => popts.duration_ms = Some(uint(&mut it, "--duration")),
                "--out" => popts.out = Some(value(&mut it, "--out")),
                other => fail(format!("unknown profile option {other:?}")),
            }
        }
        match cmd_profile(&name, &popts) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("dustctl: {e}");
                std::process::exit(1)
            }
        }
        return;
    }
    if cmd == "place" {
        let mut popts = PlaceOptions::default();
        let mut path: Option<String> = None;
        let mut it = args.iter().skip(1);
        let numeric = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> f64 {
            let v = it.next().unwrap_or_else(|| fail(format!("{flag} needs a value")));
            v.parse().unwrap_or_else(|_| fail(format!("{flag}: invalid number {v:?}")))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--c-max" => popts.base.c_max = numeric(&mut it, "--c-max"),
                "--co-max" => popts.base.co_max = numeric(&mut it, "--co-max"),
                "--x-min" => popts.base.x_min = numeric(&mut it, "--x-min"),
                "--max-hop" => popts.base.max_hop = Some(uint(&mut it, "--max-hop")),
                "--enumerate" => popts.base.enumerate_paths = true,
                "--simplex" => popts.base.simplex = true,
                "--threads" => popts.base.threads = uint(&mut it, "--threads"),
                "--fat-tree" => {
                    let v = it.next().unwrap_or_else(|| fail("--fat-tree needs a value"));
                    popts.fat_tree = Some(parse_fat_tree_k(v).unwrap_or_else(|e| fail(e)))
                }
                "--partitions" => popts.partitions = Some(uint(&mut it, "--partitions")),
                "--batch" => popts.batch = uint(&mut it, "--batch"),
                "--seed" => popts.seed = uint(&mut it, "--seed"),
                "--gap" => popts.gap = true,
                "--warm" => popts.warm = true,
                "--delta-threshold" => {
                    popts.delta_threshold = Some(numeric(&mut it, "--delta-threshold"))
                }
                "--profile" => {
                    popts.profile =
                        Some(it.next().unwrap_or_else(|| fail("--profile needs a value")).clone())
                }
                other if !other.starts_with('-') && path.is_none() => path = Some(other.into()),
                other => fail(format!("unknown place option {other:?}")),
            }
        }
        let file_nmdb = path.map(|p| {
            let input = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| fail(format!("cannot read {p:?}: {e}")));
            parse_nmdb(&input).unwrap_or_else(|e| fail(format!("{p}: {e}")))
        });
        match cmd_place(file_nmdb.as_ref(), &popts) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("dustctl: {e}");
                std::process::exit(1)
            }
        }
        return;
    }
    let Some(path) = args.get(1).cloned() else { fail(format!("{cmd}: missing <file>")) };

    let mut opts = Options::default();
    let mut hops = 1usize;
    let mut zone_size: Option<usize> = None;
    let mut sweep = false;
    let mut it = args.iter().skip(2);
    let numeric = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> f64 {
        let v = it.next().unwrap_or_else(|| fail(format!("{flag} needs a value")));
        v.parse().unwrap_or_else(|_| fail(format!("{flag}: invalid number {v:?}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--c-max" => opts.c_max = numeric(&mut it, "--c-max"),
            "--co-max" => opts.co_max = numeric(&mut it, "--co-max"),
            "--x-min" => opts.x_min = numeric(&mut it, "--x-min"),
            "--max-hop" => opts.max_hop = Some(uint(&mut it, "--max-hop")),
            "--enumerate" => opts.enumerate_paths = true,
            "--simplex" => opts.simplex = true,
            "--threads" => opts.threads = uint(&mut it, "--threads"),
            "--hops" => hops = uint(&mut it, "--hops"),
            "--zone-size" => zone_size = Some(uint(&mut it, "--zone-size")),
            "--sweep" => sweep = true,
            other => fail(format!("unknown option {other:?}")),
        }
    }

    let input = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(format!("cannot read {path:?}: {e}")));
    let nmdb = parse_nmdb(&input).unwrap_or_else(|e| fail(format!("{path}: {e}")));

    let result = match cmd.as_str() {
        "roles" => roles(&nmdb, &opts),
        "optimize" => cmd_optimize(&nmdb, &opts),
        "heuristic" => cmd_heuristic(&nmdb, &opts, hops),
        "zoned" => {
            let size = zone_size.unwrap_or_else(|| fail("zoned requires --zone-size N"));
            cmd_zoned(&nmdb, &opts, size, sweep)
        }
        "dot" => cmd_dot(&nmdb, &opts),
        other => fail(format!("unknown command {other:?}")),
    };
    match result {
        Ok(out) => print!("{out}"),
        // Solve-time failures (infeasible, hop starvation, bad thresholds)
        // exit 1 without the usage banner; usage errors exit 2 via fail().
        Err(e) => {
            eprintln!("dustctl: {e}");
            std::process::exit(1)
        }
    }
}
