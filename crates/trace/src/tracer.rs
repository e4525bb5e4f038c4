//! The [`Tracer`]: the machine-facing front end of the tracing layer.
//!
//! A `Tracer` owns the attached sinks and the flow-id bookkeeping that
//! links a message's send to its delivery (and thereby request to reply
//! in the viewer). It is an event stream only and counts nothing: the
//! per-node counters live in the machine's always-on statistics. The
//! machine holds an `Option<Box<Tracer>>`: `None` costs one never-taken
//! branch per instrumentation site, which is the whole "zero cost when
//! off" story.

use crate::event::{Categories, Category, StateLabel, TraceEvent};
use crate::perfetto::PerfettoSink;
use crate::ring::RingSink;
use crate::sink::TraceSink;
use crate::spec::TraceSpec;
use dsm_sim::{Cycle, LineAddr, NodeId, ProcId, StableHashMap, StableHasher};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrently written temp files; never affects final
/// file names or contents.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Records structured events into the sinks selected by a
/// [`TraceSpec`] and writes the output files when the run finishes.
///
/// Determinism contract: everything a `Tracer` writes is a pure
/// function of the event sequence it was fed. Flow ids come from a
/// private monotonic counter, file names embed the run seed and a
/// [`StableHasher`] digest of the content, and no wall-clock value is
/// ever recorded — so the same simulation produces byte-identical
/// trace files whether it runs under `--jobs 1` or `--jobs 8`.
pub struct Tracer {
    cats: Categories,
    perfetto: Option<PerfettoSink>,
    ring: Option<RingSink>,
    perfetto_out: Option<PathBuf>,
    ring_out: Option<PathBuf>,
    /// Per-(src,dst) queues of in-flight flow ids. The mesh delivers
    /// messages between any given pair of nodes in FIFO order, so the
    /// send at the queue's front is always the one being delivered.
    pair_flows: StableHashMap<u64, VecDeque<u64>>,
    next_flow: u64,
    /// The operation span the machine is currently working on behalf
    /// of; messages sent while it is non-zero are attributed to it.
    span_ctx: u64,
    /// Span ids start at 1 so 0 can mean "no span" everywhere.
    next_span: u64,
    /// In-flight flow → owning span, plus the send/delivery times
    /// needed to emit the `net` and `queue` phases at service time.
    flow_spans: StableHashMap<u64, FlowCtx>,
}

/// What [`Tracer::msg_service`] needs to reconstruct a flow's network
/// and queueing phases: stored at send time, consumed at service time.
#[derive(Debug, Clone, Copy)]
struct FlowCtx {
    span: u64,
    sent: Cycle,
    deliver_at: Cycle,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("cats", &self.cats)
            .field("perfetto", &self.perfetto.is_some())
            .field("ring", &self.ring.is_some())
            .field("next_flow", &self.next_flow)
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer for a `nodes`-node machine from a parsed spec.
    pub fn new(spec: &TraceSpec, nodes: u32) -> Self {
        Tracer {
            cats: spec.cats,
            perfetto: spec.perfetto.then(|| PerfettoSink::new(nodes)),
            ring: spec.ring.map(RingSink::new),
            perfetto_out: spec.out.clone(),
            // A ring without its own path follows the Perfetto output
            // (only the extension differs), so one `perfetto:DIR,ring`
            // spec keeps both files together.
            ring_out: spec.ring_out.clone().or_else(|| {
                spec.out.as_ref().map(|p| {
                    if p.extension().is_some() {
                        p.with_extension("ring")
                    } else {
                        p.clone()
                    }
                })
            }),
            pair_flows: StableHashMap::default(),
            next_flow: 0,
            span_ctx: 0,
            next_span: 1,
            flow_spans: StableHashMap::default(),
        }
    }

    /// Whether events of `cat` are being recorded. Instrumentation
    /// sites with any preparation cost (state probes, queue scans)
    /// check this before doing the work.
    #[inline]
    pub fn wants(&self, cat: Category) -> bool {
        self.cats.contains(cat)
    }

    fn record(&mut self, ev: &TraceEvent) {
        if let Some(p) = &mut self.perfetto {
            p.record(ev);
        }
        if let Some(r) = &mut self.ring {
            r.record(ev);
        }
    }

    fn pair_key(src: NodeId, dst: NodeId) -> u64 {
        (u64::from(src.as_u32()) << 32) | u64::from(dst.as_u32())
    }

    /// Records a message entering the network and returns its flow id.
    #[allow(clippy::too_many_arguments)]
    pub fn msg_send(
        &mut self,
        at: Cycle,
        src: NodeId,
        dst: NodeId,
        line: LineAddr,
        kind: &'static str,
        flits: u64,
        hops: u32,
        deliver_at: Cycle,
    ) -> u64 {
        let flow = self.next_flow;
        self.next_flow += 1;
        self.pair_flows
            .entry(Self::pair_key(src, dst))
            .or_default()
            .push_back(flow);
        if self.span_ctx != 0 {
            self.flow_spans.insert(
                flow,
                FlowCtx {
                    span: self.span_ctx,
                    sent: at,
                    deliver_at,
                },
            );
        }
        self.record(&TraceEvent::MsgSend {
            at,
            src,
            dst,
            line,
            kind,
            flits,
            hops,
            deliver_at,
            flow,
        });
        flow
    }

    /// Records a delivered message being serviced at `dst`. The flow id
    /// is recovered from the per-pair FIFO the matching
    /// [`msg_send`](Tracer::msg_send) pushed onto.
    ///
    /// If the flow was sent on behalf of an operation span, the span's
    /// child phases are emitted here — `net` (send → delivery), `queue`
    /// (delivery → service start, when the server was busy) and the
    /// service interval itself under `phase` — and the owning span id
    /// is returned so the caller can thread it through the message's
    /// processing. Returns 0 for span-less flows.
    #[allow(clippy::too_many_arguments)]
    pub fn msg_service(
        &mut self,
        start: Cycle,
        finish: Cycle,
        src: NodeId,
        dst: NodeId,
        kind: &'static str,
        home: bool,
        phase: &'static str,
    ) -> u64 {
        let flow = self
            .pair_flows
            .get_mut(&Self::pair_key(src, dst))
            .and_then(VecDeque::pop_front)
            .unwrap_or(u64::MAX);
        self.record(&TraceEvent::MsgService {
            start,
            finish,
            dst,
            kind,
            home,
            flow,
        });
        let Some(ctx) = self.flow_spans.remove(&flow) else {
            return 0;
        };
        if ctx.deliver_at > ctx.sent {
            self.record(&TraceEvent::SpanPhase {
                start: ctx.sent,
                end: ctx.deliver_at,
                span: ctx.span,
                node: dst,
                phase: "net",
            });
        }
        if start > ctx.deliver_at {
            self.record(&TraceEvent::SpanPhase {
                start: ctx.deliver_at,
                end: start,
                span: ctx.span,
                node: dst,
                phase: "queue",
            });
        }
        self.record(&TraceEvent::SpanPhase {
            start,
            end: finish,
            span: ctx.span,
            node: dst,
            phase,
        });
        ctx.span
    }

    /// Opens an operation span at issue time and makes it the current
    /// span context, so every message sent until the context changes is
    /// attributed to it. Returns the span id, or 0 when the `span`
    /// category is disabled (the id is then safe to thread around — all
    /// other span methods ignore span 0).
    pub fn span_begin(&mut self, at: Cycle, proc: ProcId, op: &'static str, line: LineAddr) -> u64 {
        if !self.wants(Category::Span) {
            return 0;
        }
        let span = self.next_span;
        self.next_span += 1;
        self.record(&TraceEvent::SpanBegin {
            at,
            span,
            proc,
            op,
            line,
        });
        self.span_ctx = span;
        span
    }

    /// Sets the span on whose behalf subsequently sent messages are
    /// working (0 = none). The machine brackets message processing with
    /// this so protocol-generated traffic — forwards, invalidation
    /// fan-out, replies — inherits the requesting operation's span.
    pub fn set_span_ctx(&mut self, span: u64) {
        self.span_ctx = span;
    }

    /// Closes an operation span. `outcome` is `"ok"` or the failure
    /// kind (`"cas-fail"`, `"sc-fail"`, `"ll-unreserved"`). Ignored for
    /// span 0.
    pub fn span_end(&mut self, at: Cycle, proc: ProcId, span: u64, outcome: &'static str) {
        if span == 0 {
            return;
        }
        self.record(&TraceEvent::SpanEnd {
            at,
            span,
            proc,
            outcome,
        });
    }

    /// Records a retired memory operation.
    pub fn op(
        &mut self,
        proc: ProcId,
        issued: Cycle,
        retired: Cycle,
        label: &'static str,
        local: bool,
        chain: u32,
    ) {
        self.record(&TraceEvent::Op {
            proc,
            issued,
            retired,
            label,
            local,
            chain,
        });
    }

    /// Records a failed atomic attempt the processor will retry.
    pub fn retry(&mut self, at: Cycle, proc: ProcId, label: &'static str) {
        self.record(&TraceEvent::Retry { at, proc, label });
    }

    /// Records an LL/SC reservation event.
    pub fn reservation(&mut self, at: Cycle, node: NodeId, label: &'static str) {
        self.record(&TraceEvent::Reservation { at, node, label });
    }

    /// Records a directory state transition at `node`'s home module.
    pub fn dir_transition(
        &mut self,
        at: Cycle,
        node: NodeId,
        line: LineAddr,
        from: StateLabel,
        to: StateLabel,
    ) {
        self.record(&TraceEvent::DirTransition {
            at,
            node,
            line,
            from,
            to,
        });
    }

    /// Records a cache-line state transition at `node`'s cache.
    pub fn cache_transition(
        &mut self,
        at: Cycle,
        node: NodeId,
        line: LineAddr,
        from: StateLabel,
        to: StateLabel,
    ) {
        self.record(&TraceEvent::CacheTransition {
            at,
            node,
            line,
            from,
            to,
        });
    }

    /// Records a home-queue occupancy sample.
    pub fn queue_depth(&mut self, at: Cycle, node: NodeId, depth: u64) {
        self.record(&TraceEvent::QueueDepth { at, node, depth });
    }

    /// The Perfetto JSON recorded so far, if that sink is attached.
    pub fn perfetto_json(&self) -> Option<String> {
        self.perfetto.as_ref().map(PerfettoSink::json)
    }

    /// The ring sink, if attached.
    pub fn ring(&self) -> Option<&RingSink> {
        self.ring.as_ref()
    }

    /// Writes every attached file-backed sink and returns the paths
    /// written.
    ///
    /// File naming is deterministic: unless the spec gave an exact
    /// file path, output goes to
    /// `DIR/trace-{seed:016x}-{contenthash:016x}.{ext}` where the
    /// content hash is a [`StableHasher`] digest of the file's bytes.
    /// Writes go through a temp file and an atomic rename, so two
    /// workers finishing the same job concurrently both land the same
    /// bytes at the same name.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or file writes.
    pub fn finish(&self, seed: u64) -> io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if let Some(p) = &self.perfetto {
            let mut bytes = Vec::new();
            p.write_to(&mut bytes)?;
            written.push(write_deterministic(
                self.perfetto_out.as_deref(),
                seed,
                "json",
                &bytes,
            )?);
        }
        if let Some(r) = &self.ring {
            let mut bytes = Vec::new();
            r.write_to(&mut bytes)?;
            written.push(write_deterministic(
                self.ring_out.as_deref(),
                seed,
                "ring",
                &bytes,
            )?);
        }
        Ok(written)
    }
}

/// Default output directory for content-addressed trace files.
pub const DEFAULT_TRACE_DIR: &str = "traces";

fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Resolves the final path for one output file: an explicit `.json`
/// path (or any path with an extension) is used verbatim; anything
/// else is treated as a directory receiving a content-addressed name.
fn resolve_path(out: Option<&Path>, seed: u64, ext: &str, bytes: &[u8]) -> PathBuf {
    match out {
        Some(p) if p.extension().is_some() => p.to_path_buf(),
        other => {
            let dir = other.unwrap_or(Path::new(DEFAULT_TRACE_DIR));
            dir.join(format!(
                "trace-{seed:016x}-{:016x}.{ext}",
                content_hash(bytes)
            ))
        }
    }
}

fn write_deterministic(
    out: Option<&Path>,
    seed: u64,
    ext: &str,
    bytes: &[u8],
) -> io::Result<PathBuf> {
    let path = resolve_path(out, seed, ext, bytes);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    // Concurrent workers may finish identical jobs at the same time;
    // each writes its own temp file and the rename is atomic, so the
    // final path only ever holds complete content.
    let tmp = path.with_extension(format!(
        "{ext}.tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> TraceSpec {
        TraceSpec::from_spec(s).unwrap()
    }

    #[test]
    fn flows_link_send_to_service_in_fifo_order() {
        let mut t = Tracer::new(&spec("perfetto"), 2);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let line = LineAddr::new(5);
        let f0 = t.msg_send(Cycle::new(1), a, b, line, "GetX", 1, 1, Cycle::new(10));
        let f1 = t.msg_send(Cycle::new(2), a, b, line, "GetS", 1, 1, Cycle::new(11));
        assert_eq!((f0, f1), (0, 1));
        t.msg_service(Cycle::new(10), Cycle::new(30), a, b, "GetX", true, "dir");
        t.msg_service(Cycle::new(30), Cycle::new(40), a, b, "GetS", true, "dir");
        let json = t.perfetto_json().unwrap();
        let summary = crate::perfetto::validate(&json).unwrap();
        assert_eq!(summary.flow_starts, 2);
        assert_eq!(summary.flow_finishes, 2);
        // FIFO pairing: first service gets flow 0.
        let s_pos = json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":0").unwrap();
        let s1_pos = json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":1").unwrap();
        assert!(s_pos < s1_pos);
    }

    #[test]
    fn spans_attribute_flows_and_emit_phases() {
        let mut t = Tracer::new(&spec("perfetto"), 2);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let line = LineAddr::new(9);
        let span = t.span_begin(Cycle::new(5), ProcId::new(0), "Cas", line);
        assert_eq!(span, 1);
        // Sent inside the span context: attributed.
        t.msg_send(Cycle::new(5), a, b, line, "GetX", 2, 1, Cycle::new(15));
        t.set_span_ctx(0);
        // Sent outside any span: not attributed.
        t.msg_send(Cycle::new(6), b, a, line, "Wb", 2, 1, Cycle::new(16));
        // Service starts late (queue wait 15..20), runs 20..34.
        let got = t.msg_service(Cycle::new(20), Cycle::new(34), a, b, "GetX", true, "dir");
        assert_eq!(got, span);
        let got = t.msg_service(
            Cycle::new(16),
            Cycle::new(18),
            b,
            a,
            "Wb",
            false,
            "cachesvc",
        );
        assert_eq!(got, 0);
        t.span_end(Cycle::new(40), ProcId::new(0), span, "ok");
        let json = t.perfetto_json().unwrap();
        crate::perfetto::validate(&json).unwrap();
        for needle in ["\"net\"", "\"queue\"", "\"dir\"", "\"Cas\""] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn span_begin_is_free_when_category_disabled() {
        let mut t = Tracer::new(&spec("perfetto,cat:msg"), 2);
        let span = t.span_begin(Cycle::new(0), ProcId::new(0), "Cas", LineAddr::new(1));
        assert_eq!(span, 0);
        t.span_end(Cycle::new(9), ProcId::new(0), span, "ok");
        // No span events reached the sink.
        assert!(!t.perfetto_json().unwrap().contains("span"));
    }

    #[test]
    fn categories_gate_via_wants() {
        let t = Tracer::new(&spec("perfetto,cat:msg"), 2);
        assert!(t.wants(Category::Msg));
        assert!(!t.wants(Category::State));
        assert!(!t.wants(Category::Queue));
    }

    #[test]
    fn finish_writes_content_addressed_files() {
        let dir = std::env::temp_dir().join(format!("dsm-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Tracer::new(
            &TraceSpec {
                perfetto: true,
                out: Some(dir.clone()),
                ring: Some(64),
                ring_out: Some(dir.join("dump.ring")),
                cats: Categories::all(),
            },
            2,
        );
        t.op(
            ProcId::new(0),
            Cycle::new(0),
            Cycle::new(5),
            "Load",
            true,
            0,
        );
        let paths = t.finish(0xabcd).unwrap();
        assert_eq!(paths.len(), 2);
        let name = paths[0].file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("trace-000000000000abcd-"));
        assert!(name.ends_with(".json"));
        assert_eq!(paths[1], dir.join("dump.ring"));
        // Same events, same bytes, same name: finishing again is
        // idempotent.
        let again = t.finish(0xabcd).unwrap();
        assert_eq!(paths, again);
        let json = std::fs::read_to_string(&paths[0]).unwrap();
        crate::perfetto::validate(&json).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
