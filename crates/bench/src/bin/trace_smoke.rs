//! Trace smoke check: runs a tiny tiled stencil twice — untraced and
//! with a [`sc_trace::TraceSession`] subscribed — asserts the traced
//! run is results-identical (same cycle count, same verified store
//! image), then writes the Perfetto timeline JSON and the sampled
//! metric CSV to `target/reports/` and re-parses the JSON to validate
//! the trace-event schema (`traceEvents` array, `ph`/`pid`/`ts` fields,
//! durations on every complete event).
//!
//! CI runs this on every push and uploads the trace as an artifact, so
//! a schema break or a tracing-dependent result divergence fails fast
//! on a sub-second run.
//!
//! Run with `cargo run --release -p sc-bench --bin trace_smoke`.

use sc_bench::Json;
use sc_core::CoreConfig;
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, TCDM_CAP_BYTES};
use sc_mem::{DramConfig, L2Config};
use sc_trace::{TraceConfig, TraceSession, Tracer};

const CLUSTERS: u32 = 2;
const CORES: u32 = 2;
const MAX_CYCLES: u64 = 100_000_000;

fn main() {
    let grid = Grid3::new(8, 8, 8);
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
        .expect("valid combination");
    let tk = gen
        .build_system_tiled(CLUSTERS, CORES, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB");
    // Under-fit the L2 so the trace exercises the interesting spans:
    // refill/write-back channel occupancy and prefetch stream lifetimes.
    let l2 = L2Config::new()
        .with_capacity_bytes(tk.working_set().underfit_capacity(256 * 8))
        .with_ways(4)
        .with_mshrs(8)
        .with_refill_channels(2)
        .with_write_back(true);

    let cfg = CoreConfig::new();
    let untraced = tk
        .run(cfg, l2, DramConfig::new(), MAX_CYCLES)
        .expect("untraced run completes");

    let session = TraceSession::new(TraceConfig::new().with_sample_every(256));
    let traced = tk
        .run_with(cfg, l2, DramConfig::new(), MAX_CYCLES, |b| {
            b.tracer(session.tracer())
        })
        .expect("traced run completes and verifies the same store image");

    // Tracing must be an observer: cycle-for-cycle identical results.
    assert_eq!(
        untraced.summary.cycles, traced.summary.cycles,
        "subscribing a tracer changed the cycle count"
    );
    assert!(
        session.events_buffered() > 0,
        "a traced under-fit run must buffer events"
    );

    let json = session.perfetto_json();
    let csv = session.samples_csv();
    validate_perfetto(&json);
    validate_csv(&csv);

    let dir = std::path::Path::new("target").join("reports");
    std::fs::create_dir_all(&dir).expect("create target/reports");
    let trace_path = dir.join("trace_smoke.json");
    std::fs::write(&trace_path, &json).expect("write trace");
    let csv_path = dir.join("trace_smoke_metrics.csv");
    std::fs::write(&csv_path, &csv).expect("write metric series");

    println!(
        "trace ok: {} cycles, {} buffered events, {} bytes of perfetto json",
        traced.summary.cycles,
        session.events_buffered(),
        json.len()
    );
    println!("timeline: {}", trace_path.display());
    println!("metrics:  {}", csv_path.display());

    // A second session must be inert when never subscribed: the off
    // tracer is the zero-cost path every production run takes.
    let off = Tracer::off();
    assert!(!off.is_on(), "Tracer::off() must report off");
}

/// Round-trips the emitted JSON through the bench parser and asserts
/// the Chrome trace-event shape Perfetto loads.
fn validate_perfetto(json: &str) {
    let doc = Json::parse(json).expect("emitted trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::items)
        .expect("trace must carry a traceEvents array");
    assert!(!events.is_empty(), "traceEvents must be non-empty");
    let mut metadata = 0usize;
    let mut complete = 0usize;
    let mut counters = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("traceEvents[{i}] has no ph"));
        assert!(
            e.get("pid").and_then(Json::as_f64).is_some(),
            "traceEvents[{i}] has no pid"
        );
        match ph {
            "M" => metadata += 1,
            "X" => {
                assert!(
                    e.get("ts").and_then(Json::as_f64).is_some()
                        && e.get("dur").and_then(Json::as_f64).is_some(),
                    "complete event traceEvents[{i}] needs ts and dur"
                );
                complete += 1;
            }
            "i" => assert!(
                e.get("ts").and_then(Json::as_f64).is_some(),
                "instant traceEvents[{i}] needs ts"
            ),
            "C" => {
                assert!(
                    e.get("ts").and_then(Json::as_f64).is_some() && e.get("args").is_some(),
                    "counter traceEvents[{i}] needs ts and args"
                );
                counters += 1;
            }
            other => panic!("traceEvents[{i}] has unexpected ph {other:?}"),
        }
    }
    assert!(metadata > 0, "process/thread name metadata must be present");
    assert!(complete > 0, "an under-fit run must emit spans");
    assert!(counters > 0, "occupancy counters must be present");
}

/// Asserts the sampled metric series header and that the interval
/// sampler produced rows from more than one metric source.
fn validate_csv(csv: &str) {
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("cycle,pid,tid,source,metric,value"),
        "metric series header drifted"
    );
    let sources: std::collections::BTreeSet<&str> =
        lines.filter_map(|l| l.split(',').nth(3)).collect();
    for want in ["core", "tcdm", "dma", "l2"] {
        assert!(
            sources.contains(want),
            "sampled series lacks the `{want}` source (got {sources:?})"
        );
    }
}
