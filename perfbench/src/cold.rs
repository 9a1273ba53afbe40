//! `cold`: served Pontryagin and hull bound queries that miss both cache
//! tiers, because every pass starts a fresh server.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mfu_core::artifact::BoundMethod;
use mfu_core::json::Json;
use mfu_lang::scenarios::{Scenario, ScenarioRegistry};
use mfu_serve::protocol::Request;
use mfu_serve::service::{QueryService, ServiceOptions};

use crate::bound::{timed, traced_bound};
use crate::layers::Tally;
use crate::manifest::Entry;
use crate::report::Measured;
use crate::served::{self, Connection, Outcome};

/// Set-ups every run measures at least, so the set-up median of a
/// sub-millisecond server start rests on enough samples.
const MIN_SETUPS: usize = 100;

/// An ordered list of served cold queries with their answer checks.
pub struct ColdOps {
    /// `"<scenario> <method>"` of each op: its name in diagnostics and
    /// its key in the known-defect list.
    labels: Vec<String>,
    scenarios: Vec<Scenario>,
    methods: Vec<BoundMethod>,
    lines: Vec<String>,
    domains: Vec<Option<(f64, f64)>>,
    known: BTreeMap<String, String>,
}

impl ColdOps {
    pub fn new(
        registry: &ScenarioRegistry,
        cells: &[(String, BoundMethod)],
        known: BTreeMap<String, String>,
    ) -> Result<ColdOps, String> {
        let mut ops = ColdOps {
            labels: Vec::new(),
            scenarios: Vec::new(),
            methods: Vec::new(),
            lines: Vec::new(),
            domains: Vec::new(),
            known,
        };
        for (name, method) in cells {
            let scenario = registry
                .get(name)
                .ok_or_else(|| format!("no registry scenario `{name}`"))?;
            let model = scenario.compile().map_err(|e| format!("{name}: {e}"))?;
            // Attained values of a conservative model are densities; an
            // enclosure may be loose and still sound, so hulls get no
            // domain check.
            let attained = *method == BoundMethod::Pontryagin;
            ops.domains
                .push((attained && model.is_conservative()).then_some((0.0, 1.0)));
            ops.labels.push(format!("{name} {}", method.name()));
            ops.scenarios.push(scenario.clone());
            ops.methods.push(*method);
            ops.lines.push(served::request_line(name, *method));
        }
        Ok(ops)
    }
}

/// One untimed-or-timed served pass over a fresh server.
struct ServedPass {
    setup_s: f64,
    op_ns: Vec<f64>,
    pass_s: f64,
    responses: Vec<String>,
    service: Arc<QueryService>,
    stats: Json,
}

fn served_pass(ops: &ColdOps) -> Result<ServedPass, String> {
    let started = Instant::now();
    let mut connection = Connection::open(ServiceOptions::default())?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut response = String::new();
    let mut op_ns = Vec::with_capacity(ops.lines.len());
    let mut responses = Vec::with_capacity(ops.lines.len());
    let pass_started = Instant::now();
    for line in &ops.lines {
        let op_started = Instant::now();
        connection.round_trip(line, &mut response)?;
        op_ns.push(op_started.elapsed().as_nanos() as f64);
        responses.push(response.clone());
    }
    let pass_s = pass_started.elapsed().as_secs_f64();
    let service = Arc::clone(connection.service());
    let stats = service.stats_json();
    connection.close()?;
    Ok(ServedPass {
        setup_s,
        op_ns,
        pass_s,
        responses,
        service,
        stats,
    })
}

/// Adds a timed pass to `m`: checks every answer and its bit-identity to
/// the first pass's.
fn record(
    ops: &ColdOps,
    pass: &ServedPass,
    reference: &mut Option<Vec<Outcome>>,
    m: &mut Measured,
) -> Vec<Outcome> {
    m.setup_s.push(pass.setup_s);
    let op_ms: Vec<f64> = pass.op_ns.iter().map(|ns| ns * 1e-6).collect();
    m.pass(&op_ms, pass.pass_s);
    let outcomes: Vec<Outcome> = pass
        .responses
        .iter()
        .map(|r| served::parse_response(r))
        .collect();
    for (i, outcome) in outcomes.iter().enumerate() {
        let label = &ops.labels[i];
        let check = match outcome {
            Ok(answer) => answer.check(ops.domains[i]),
            Err(message) => Err(message.clone()),
        };
        m.judge(label, check, ops.known.get(label));
    }
    match reference {
        None => *reference = Some(outcomes.clone()),
        Some(first) => {
            for (i, (a, b)) in first.iter().zip(&outcomes).enumerate() {
                if a != b {
                    let label = &ops.labels[i];
                    m.problem(format!("{label}: answer differs from the first pass"));
                }
            }
        }
    }
    outcomes
}

/// The traced twin of a served pass: every op replicated layer by layer,
/// its answer asserted bit-identical to the served one, plus one
/// in-process hit on the served pass's (now warm) service.
fn traced_pass(
    ops: &ColdOps,
    pass: &ServedPass,
    outcomes: &[Outcome],
    m: &mut Measured,
) -> Result<Tally, String> {
    let options = ServiceOptions::default();
    let mut tally = Tally::default();
    for (i, scenario) in ops.scenarios.iter().enumerate() {
        let line = &ops.lines[i];
        let before = tally.get("serve.parse_ns") + tally.get("serve.serialise_ns");
        let traced = traced_bound(scenario, ops.methods[i], line, &options, &mut tally);
        if traced != outcomes[i] {
            m.problem(format!(
                "{}: traced answer differs from the served one",
                ops.labels[i]
            ));
        }
        let layers_ns = tally.get("serve.parse_ns") + tally.get("serve.serialise_ns") - before;
        let round_trip_ns = pass.op_ns[i];
        let response = &pass.responses[i];
        if let Some(inside_ns) = served::elapsed_ns(response) {
            let net_ns = round_trip_ns - inside_ns - layers_ns;
            tally.add("serve.net_ns", net_ns);
            tally.add("serve.round_trips", 1.0);
            tally.add("trace.attributed_ns", net_ns);
            tally.add("trace.e2e_ns", net_ns);
        }
        tally.add("serve.lookups", 1.0);
        if response.contains("\"cache\":\"hit\"") {
            tally.add("serve.artifact_hits", 1.0);
        }
        if let Ok(answer) = &outcomes[i] {
            let Ok(Request::Bound(request)) = Request::parse(line.trim_end()) else {
                return Err(format!("request `{line}` does not parse"));
            };
            let (hit, hit_ns) = timed(|| pass.service.bound(&request));
            let hit = hit.map_err(|e| format!("{}: hit failed: {e}", ops.labels[i]))?;
            if !hit.cache_hit || served::Answer::of(&hit.artifact) != *answer {
                m.problem(format!(
                    "{}: warm service did not return the cold answer",
                    ops.labels[i]
                ));
            }
            tally.add("serve.hit_ns", hit_ns);
            tally.add("serve.hits", 1.0);
        }
    }
    let stat = |key: &str| pass.stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    tally.add("serve.model_hits", stat("model_hits"));
    tally.add("serve.evictions", stat("artifact_evictions"));
    Ok(tally)
}

/// The traced passes of a run and the time they took against their
/// untraced twins.
#[derive(Default)]
pub struct Traced {
    pub passes: Vec<Tally>,
    pub untraced_s: f64,
    pub traced_s: f64,
}

/// Runs `passes` timed passes (or, traced, pairs of an untimed-comparison
/// served pass and its traced twin) after an untimed warm-up pass.
pub fn run(
    ops: &ColdOps,
    passes: usize,
    trace: bool,
    m: &mut Measured,
) -> Result<Option<Traced>, String> {
    served_pass(ops)?;
    let mut reference = None;
    let mut traced = Traced::default();
    let rounds = if trace { passes.div_ceil(2) } else { passes };
    // Extra set-ups spread over the run, so the set-up median samples as
    // many stretches of the machine's speed as the ops do.
    let extra = MIN_SETUPS.div_ceil(rounds).saturating_sub(1);
    for _ in 0..rounds {
        for _ in 0..extra {
            let started = Instant::now();
            let connection = Connection::open(ServiceOptions::default())?;
            m.setup_s.push(started.elapsed().as_secs_f64());
            connection.close()?;
        }
        let pass = served_pass(ops)?;
        let outcomes = record(ops, &pass, &mut reference, m);
        if trace {
            let started = Instant::now();
            traced.passes.push(traced_pass(ops, &pass, &outcomes, m)?);
            traced.traced_s += started.elapsed().as_secs_f64();
            traced.untraced_s += pass.pass_s;
        }
    }
    Ok(trace.then_some(traced))
}

/// The workload as the manifest lists it.
pub fn workload(
    entry: &Entry,
    seconds: u64,
    trace: bool,
    m: &mut Measured,
) -> Result<Option<Traced>, String> {
    let registry = ScenarioRegistry::with_builtins();
    let ops = ColdOps::new(&registry, &entry.cells("ops")?, entry.known_defects())?;
    let traced = run(&ops, entry.passes(seconds)?, trace, m)?;
    m.print_best(ops.labels.iter().map(String::as_str));
    Ok(traced)
}
