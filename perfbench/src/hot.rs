//! `hot_hits`: a seeded trace of cache hits replayed over one persistent
//! connection to a long-lived, pre-warmed service.

use std::time::Instant;

use mfu_core::artifact::BoundMethod;
use mfu_core::json::Json;
use mfu_lang::scenarios::{Scenario, ScenarioRegistry};
use mfu_serve::protocol::{bound_response, Request};
use mfu_serve::service::ServiceOptions;

use crate::bound::{timed, traced_bound};
use crate::cold::Traced;
use crate::layers::Tally;
use crate::manifest::Entry;
use crate::report::Measured;
use crate::served::{self, Connection, Outcome};

/// What follows the artifact in every hit response (keys render sorted:
/// `artifact`, `cache`, `cache_hit`, `elapsed_ns`, `ok`).
const HIT_MARK: &str = ",\"cache\":\"hit\",";

struct Cell {
    scenario: Scenario,
    method: BoundMethod,
    line: String,
}

/// A warmed service: the connection plus, per cell, the leading
/// `{"artifact":…` part of the cold response, which every later hit must
/// repeat byte for byte.
struct Warm {
    connection: Connection,
    artifacts: Vec<String>,
    outcomes: Vec<Outcome>,
}

fn warm(cells: &[Cell]) -> Result<(Warm, f64), String> {
    let started = Instant::now();
    let mut connection = Connection::open(ServiceOptions::default())?;
    let mut artifacts = Vec::with_capacity(cells.len());
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut response = String::new();
    for cell in cells {
        connection.round_trip(&cell.line, &mut response)?;
        let end = response
            .find(",\"cache\":\"miss\",")
            .ok_or_else(|| format!("{}: warm-up query failed: {response}", cell.scenario.name()))?;
        artifacts.push(response[..end].to_string());
        outcomes.push(served::parse_response(&response));
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Warm {
            connection,
            artifacts,
            outcomes,
        },
        setup_s,
    ))
}

/// A hit response carrying exactly the cold `artifact` bytes.
fn is_hit_of(response: &str, artifact: &str) -> bool {
    response.starts_with(artifact) && response[artifact.len()..].starts_with(HIT_MARK)
}

/// The seeded hit trace: which cell each op asks for (xorshift64*).
fn trace_cells(seed: u64, len: usize, cells: usize) -> Vec<usize> {
    // A zero state would stay zero; `max` moves only that one seed.
    let mut state = (seed ^ 0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % cells
        })
        .collect()
}

/// Replays `ops` over the warm connection, returning per-op round-trip
/// nanoseconds and the pass wall time. Each response is checked inline.
fn replay(
    warm: &mut Warm,
    cells: &[Cell],
    ops: &[usize],
    m: &mut Measured,
    keep_elapsed: bool,
) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let mut response = String::new();
    let mut op_ns = Vec::with_capacity(ops.len());
    let mut inside_ns = Vec::new();
    let started = Instant::now();
    for &cell in ops {
        let op_started = Instant::now();
        warm.connection
            .round_trip(&cells[cell].line, &mut response)?;
        op_ns.push(op_started.elapsed().as_nanos() as f64);
        let check = if is_hit_of(&response, &warm.artifacts[cell]) {
            Ok(())
        } else {
            Err("hit is not byte-identical to the cold answer".to_string())
        };
        m.judge(cells[cell].scenario.name(), check, None);
        if keep_elapsed {
            inside_ns.push(served::elapsed_ns(&response).unwrap_or(f64::NAN));
        }
    }
    Ok((op_ns, inside_ns, started.elapsed().as_secs_f64()))
}

/// The traced twin of a replayed slice: parse, source hash, in-process
/// hit and serialisation, each timed; the network share is the round
/// trip minus what the service spent inside.
fn traced_replay(
    warm: &Warm,
    cells: &[Cell],
    ops: &[usize],
    round_trip_ns: &[f64],
    inside_ns: &[f64],
    m: &mut Measured,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let service = warm.connection.service();
    let stat = |key: &str| {
        service
            .stats_json()
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (model_hits, evictions) = (stat("model_hits"), stat("artifact_evictions"));
    for (i, &cell) in ops.iter().enumerate() {
        let line = cells[cell].line.trim_end();
        let started = Instant::now();
        let (parsed, parse_ns) = timed(|| Request::parse(line));
        let Ok(Request::Bound(request)) = parsed else {
            return Err(format!("request `{line}` does not parse"));
        };
        let source = cells[cell].scenario.source();
        let (_, hash_ns) = timed(|| mfu_lang::source_hash(source));
        let (hit, hit_ns) = timed(|| service.bound(&request));
        let hit = hit.map_err(|e| format!("in-process hit failed: {e}"))?;
        let (response, serialise_ns) =
            timed(|| bound_response(&hit.artifact, hit.cache_hit, hit.elapsed_ns));
        if !(hit.cache_hit && is_hit_of(&response, &warm.artifacts[cell])) {
            m.problem(format!(
                "{}: traced hit differs from the served one",
                cells[cell].scenario.name()
            ));
        }
        let traced_ns = started.elapsed().as_nanos() as f64;
        let net_ns = round_trip_ns[i] - inside_ns[i] - parse_ns - serialise_ns;
        for (key, value) in [
            ("serve.parse_ns", parse_ns),
            ("serve.parses", 1.0),
            ("lang.hash_ns", hash_ns),
            ("lang.hashes", 1.0),
            ("serve.hit_ns", hit_ns),
            ("serve.hits", 1.0),
            ("serve.serialise_ns", serialise_ns),
            ("serve.serialised", 1.0),
            ("serve.bytes", response.len() as f64),
            ("serve.net_ns", net_ns),
            ("serve.round_trips", 1.0),
            ("serve.lookups", 1.0),
            ("serve.artifact_hits", f64::from(u8::from(hit.cache_hit))),
            ("trace.e2e_ns", traced_ns + net_ns),
            (
                "trace.attributed_ns",
                parse_ns + hash_ns + hit_ns + serialise_ns + net_ns,
            ),
        ] {
            tally.add(key, value);
        }
    }
    tally.add("serve.model_hits", stat("model_hits") - model_hits);
    tally.add("serve.evictions", stat("artifact_evictions") - evictions);
    Ok(tally)
}

pub fn workload(
    entry: &Entry,
    seed: u64,
    seconds: u64,
    trace: bool,
    m: &mut Measured,
) -> Result<(Option<Traced>, Tally), String> {
    let registry = ScenarioRegistry::with_builtins();
    let cells: Vec<Cell> = entry
        .cells("warm_cells")?
        .into_iter()
        .map(|(name, method)| {
            let scenario = registry
                .get(&name)
                .ok_or_else(|| format!("no registry scenario `{name}`"))?
                .clone();
            let line = served::request_line(&name, method);
            Ok(Cell {
                scenario,
                method,
                line,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_pass = entry.count("ops_per_pass")?;
    let warmup_ops = entry.count("warmup_ops")?;
    let setups = entry.count("setups")?.max(1);
    let passes = entry.passes(seconds)?;
    let rounds = if trace { passes.div_ceil(2) } else { passes };
    let trace_ops = trace_cells(seed, warmup_ops + per_pass, cells.len());
    let (warmup, ops) = trace_ops.split_at(warmup_ops);

    // The run's rounds fall into `setups` groups. Each group starts by
    // warming a fresh service (one set-up sample, spreading the set-ups
    // over the run) and replaying an untimed warm-up slice of the trace;
    // then each round replays the same timed slice, so every op has one
    // repeat per pass.
    let group = rounds.div_ceil(setups);
    let mut setup_tally = Tally::default();
    let mut first: Option<Vec<Outcome>> = None;
    let mut served: Option<Warm> = None;
    let mut traced = Traced::default();
    for round in 0..rounds {
        if round % group == 0 {
            if let Some(previous) = served.take() {
                previous.connection.close()?;
            }
            let (mut warm, setup_s) = warm(&cells)?;
            m.setup_s.push(setup_s);
            for (i, cell) in cells.iter().enumerate() {
                if let Err(message) = &warm.outcomes[i] {
                    let name = cell.scenario.name();
                    m.problem(format!("{name}: warm-up query failed: {message}"));
                }
            }
            match &first {
                None => first = Some(warm.outcomes.clone()),
                Some(first) if *first != warm.outcomes => {
                    m.problem("warm answers differ between set-ups".to_string());
                }
                Some(_) => {}
            }
            if trace && round == 0 {
                // The warm cells replicated layer by layer, once.
                let options = ServiceOptions::default();
                for (i, cell) in cells.iter().enumerate() {
                    let replica = traced_bound(
                        &cell.scenario,
                        cell.method,
                        &cell.line,
                        &options,
                        &mut setup_tally,
                    );
                    if replica != warm.outcomes[i] {
                        m.problem(format!(
                            "{}: traced warm answer differs from the served one",
                            cell.scenario.name()
                        ));
                    }
                }
            }
            let mut scratch = Measured::default();
            replay(&mut warm, &cells, warmup, &mut scratch, false)?;
            m.problems.append(&mut scratch.problems);
            served = Some(warm);
        }
        let warm = served.as_mut().ok_or("no set-up ran")?;
        let (op_ns, inside_ns, pass_s) = replay(warm, &cells, ops, m, trace)?;
        let op_ms: Vec<f64> = op_ns.iter().map(|ns| ns * 1e-6).collect();
        m.pass(&op_ms, pass_s);
        if trace {
            let started = Instant::now();
            traced
                .passes
                .push(traced_replay(warm, &cells, ops, &op_ns, &inside_ns, m)?);
            traced.traced_s += started.elapsed().as_secs_f64();
            traced.untraced_s += pass_s;
        }
    }
    if let Some(warm) = served {
        warm.connection.close()?;
    }
    Ok((trace.then_some(traced), setup_tally))
}
