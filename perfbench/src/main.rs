//! Helper binary of the end-to-end benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench mix --seed <n>
//! perfbench warmup --addr <host:port>
//! perfbench loadgen --addr <host:port> --seed <n> --rate <req/s>
//!           --open-secs <s> --closed-secs <s> --skip-secs <s>
//!           --sample-dir <dir>
//! perfbench trace grid  --seconds <s> --spans <file> --work <dir>
//!           --reference <dir> --sweep <spec>...
//! perfbench trace mc    --seconds <s> --spans <file> --reference <file>
//!           --set <binding>... --samples <n> --seed <n> [--tag <tag>]...
//! perfbench trace serve --seconds <s> --spans <file> --seed <n>
//!           --rate <req/s> --requests <n>
//! ```
//!
//! Every subcommand prints one JSON value on stdout and exits 0, or prints a
//! diagnostic on stderr and exits 2.

mod loadgen;
mod mix;
mod replay;
mod trace;

use cc_report::JsonValue;
use std::collections::HashMap;
use std::path::PathBuf;

/// Request lines `mix` prints.
const MIX_PREVIEW: usize = 200;

/// `--flag value` pairs; repeatable flags keep every value in order.
struct Args(HashMap<String, Vec<String>>);

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.entry(key.to_string()).or_default().push(value.clone());
        }
        Ok(Self(map))
    }

    fn all(&self, key: &str) -> Vec<String> {
        self.0.get(key).cloned().unwrap_or_default()
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.req(key)?;
        text.parse()
            .map_err(|_| format!("--{key}: cannot parse `{text}`"))
    }
}

/// A metric value as JSON: every digit kept, non-finite values as `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn report_json(report: &replay::Report, (written, dropped): (usize, u64)) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", number(*v)))
        .collect();
    let layers: Vec<String> = report
        .layers
        .iter()
        .map(|(layer, self_ms, share)| {
            format!(
                "{{\"layer\":{},\"self_ms\":{},\"share\":{}}}",
                JsonValue::from(layer.as_str()).render(),
                number(*self_ms),
                number(*share)
            )
        })
        .collect();
    let errors = JsonValue::array(report.errors.iter().map(|e| JsonValue::from(e.as_str())));
    format!(
        "{{\"metrics\":{{{}}},\"layers\":[{}],\"rounds\":{},\"attempted\":{},\"failed\":{},\
         \"errors\":{},\"spans_written\":{written},\"spans_dropped\":{dropped}}}",
        metrics.join(","),
        layers.join(","),
        report.rounds,
        report.attempted,
        report.failed,
        errors.render()
    )
}

fn trace_main(kind: &str, args: &Args) -> Result<String, String> {
    let seconds: f64 = args.num("seconds")?;
    let report = match kind {
        "grid" => replay::grid(
            &replay::GridInputs {
                entries: cc_core::experiments::entries().iter().collect(),
                sweeps: args.all("sweep"),
                reference: PathBuf::from(args.req("reference")?),
                work: PathBuf::from(args.req("work")?),
            },
            seconds,
        )?,
        "mc" => replay::mc(
            &replay::McInputs {
                entries: replay::select(&args.all("tag"))?,
                bindings: args.all("set"),
                samples: args.num("samples")?,
                seed: args.num("seed")?,
                reference: PathBuf::from(args.req("reference")?),
            },
            seconds,
        )?,
        "serve" => replay::serve(
            &replay::ServeInputs {
                seed: args.num("seed")?,
                rate: args.num("rate")?,
                requests: args.num("requests")?,
            },
            seconds,
        )?,
        other => return Err(format!("unknown trace kind `{other}`")),
    };
    let path = args.req("spans")?;
    let spans = trace::write_spans(std::path::Path::new(path))
        .map_err(|e| format!("cannot write spans to `{path}`: {e}"))?;
    Ok(report_json(&report, spans))
}

fn run(argv: &[String]) -> Result<String, String> {
    let (command, rest) = argv.split_first().ok_or("missing subcommand")?;
    match command.as_str() {
        "mix" => {
            // The first request lines of the seeded mix, which identify the
            // inputs in the report. Every stream has the same rate, so the
            // arrival order does not depend on it.
            let seed: u64 = Args::parse(rest)?.num("seed")?;
            let mut streams: Vec<mix::Stream> = (0..mix::CONNS)
                .map(|c| mix::Stream::new(seed, c, 1.0))
                .collect();
            let requests = mix::arrivals(&mut streams, &mix::keys(), MIX_PREVIEW);
            let lines: Vec<String> = requests.iter().map(|r| r.line(0)).collect();
            Ok(JsonValue::array(lines.iter().map(|l| JsonValue::from(l.trim_end()))).render())
        }
        "warmup" => {
            let args = Args::parse(rest)?;
            loadgen::warmup(args.req("addr")?)
                .map(|j| j.render())
                .map_err(|e| format!("warm-up failed: {e}"))
        }
        "loadgen" => {
            let args = Args::parse(rest)?;
            let config = loadgen::Config {
                addr: args.req("addr")?.to_string(),
                seed: args.num("seed")?,
                rate: args.num("rate")?,
                open_secs: args.num("open-secs")?,
                closed_secs: args.num("closed-secs")?,
                skip_secs: args.num("skip-secs")?,
                sample_dir: PathBuf::from(args.req("sample-dir")?),
            };
            loadgen::run(&config)
                .map(|j| j.render())
                .map_err(|e| format!("load generator failed: {e}"))
        }
        "trace" => {
            let (kind, rest) = rest.split_first().ok_or("trace needs a kind")?;
            trace_main(kind, &Args::parse(rest)?)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}
