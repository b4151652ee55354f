//! The `repro` command line end to end: parse failures, `--help` and
//! `list`. Every invocation here fails or prints before any subcommand
//! runs, so none starts a server or a worker thread.

use accordion_bench::cli::COMMANDS;
use accordion_served::engine::optimize_request_from_json;
use accordion_telemetry::json;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Asserts exit status 2 with exactly one `error:` line on stderr, and
/// returns that line.
fn rejected(args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "repro {args:?}: {stderr}");
    assert!(lines[0].starts_with("error: "), "repro {args:?}: {stderr}");
    lines[0].to_string()
}

#[test]
fn bad_values_exit_2_with_one_error_line() {
    for args in [
        ["loadtest", "--duration", "-1"],
        ["loadtest", "--warmup", "nan"],
        ["loadtest", "--queue", "0"],
        ["loadtest", "--connections", "1e30"],
        ["serve", "--threads", "0"],
        ["optimize", "--seed", "1.5"],
        ["optimize", "--power-budget", "inf"],
        ["optimize", "--population", "200"],
    ] {
        rejected(&args);
    }
}

#[test]
fn help_and_list_render_every_flag_of_every_table() {
    let help = repro(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let help = String::from_utf8(help.stdout).expect("utf-8 help");
    let list = repro(&["list"]);
    assert_eq!(list.status.code(), Some(0));
    let list = String::from_utf8(list.stdout).expect("utf-8 list");
    for cmd in COMMANDS {
        let usage = cmd.usage();
        for flag in cmd.flags {
            let shown = match flag.value {
                "" => format!("[{}]", flag.name),
                value => format!("[{} {value}]", flag.name),
            };
            assert!(usage.contains(&shown), "{usage} lacks {shown}");
        }
        assert!(
            help.contains(&format!("  {usage}\n")),
            "--help lacks {usage}"
        );
        assert!(list.contains(&format!("\t{usage}\n")), "list lacks {usage}");
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    for cmd in COMMANDS {
        let mut args: Vec<&str> = vec![cmd.name, "--no-such-flag"];
        args.retain(|a| !a.is_empty());
        let line = rejected(&args);
        assert!(line.contains("unknown flag --no-such-flag"), "{line}");
    }
}

/// A `/v1/optimize` body: the CLI's defaults with one field replaced.
fn body_with(key: &str, value: &str) -> json::Json {
    let mut fields = vec![
        ("app", "\"canneal\""),
        ("seed", "2014"),
        ("chips", "5"),
        ("iso", "true"),
    ];
    fields.retain(|(k, _)| *k != key);
    fields.push((key, value));
    let text: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    json::parse(&format!("{{{}}}", text.join(", "))).expect("valid body")
}

#[test]
fn optimize_rejects_what_the_route_rejects_with_its_message() {
    for (flag, value, key, json_value) in [
        ("--seed", "1.5", "seed", "1.5"),
        ("--seed", "9007199254740994", "seed", "9007199254740994"),
        ("--seed", "1e30", "seed", "1e30"),
        ("--population", "200", "population", "200"),
        ("--generations", "65", "generations", "65"),
        ("--chips", "101", "chips", "101"),
        ("--chip", "5", "chip", "5"),
        ("--scout-steps", "9", "scout_steps", "9"),
        ("--quality-floor", "1.5", "quality_floor", "1.5"),
        ("--power-budget", "-1", "power_budget_w", "-1"),
        ("--time-budget", "0", "time_budget_s", "0"),
        ("--grid-check", "10", "grid_check", "10"),
        ("--topo", "mega", "topo", "\"mega\""),
        ("--app", "nope", "app", "\"nope\""),
    ] {
        let route = optimize_request_from_json(&body_with(key, json_value))
            .expect_err("the route rejects it");
        assert_eq!(
            rejected(&["optimize", flag, value]),
            format!("error: {route}")
        );
    }
}
