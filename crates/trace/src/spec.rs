//! Parsing of `--trace[=SPEC]` / `DSM_TRACE` specifications.

use crate::event::{Categories, UnknownCategory};
use std::path::PathBuf;

/// A parsed trace specification: which sinks to attach, where their
/// output goes, and which event categories to record.
///
/// The spec grammar is a comma-separated list of clauses:
///
/// * `perfetto` or `perfetto:PATH` — attach the Perfetto JSON sink.
///   Without a path, files are written into the `traces/` directory
///   under a deterministic content-addressed name; with a path ending
///   in `.json`, exactly that file is written; any other path is used
///   as the output directory.
/// * `ring`, `ring:CAP`, or `ring:CAP:PATH` — attach the binary ring
///   buffer, retaining `CAP` events (default 65536).
/// * `cat:LIST` — record only the `+`-separated categories in `LIST`
///   (`msg`, `op`, `state`, `resv`, `queue`, `retry`, `span`).
///
/// The empty string and the bare words `1`, `on`, `default` all mean
/// [`TraceSpec::bare`]: "Perfetto sink, every category, default
/// directory" — so `DSM_TRACE=1` and `--trace` just work.
///
/// [`TraceSpec::default`] attaches no sink and records every category;
/// set the sinks you want on top of it, e.g.
/// `TraceSpec { ring: Some(16), ..TraceSpec::default() }` writes only a
/// ring file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Attach the Perfetto `trace_event` JSON sink.
    pub perfetto: bool,
    /// Perfetto output: a `.json` file path, a directory, or `None` for
    /// the default `traces/` directory.
    pub out: Option<PathBuf>,
    /// Ring-buffer capacity in events, if the ring sink is attached.
    pub ring: Option<usize>,
    /// Ring output path (file or directory), if given. When absent,
    /// the ring follows [`out`](TraceSpec::out) so both files land
    /// together; only with neither path does it use the default
    /// directory.
    pub ring_out: Option<PathBuf>,
    /// Categories to record.
    pub cats: Categories,
}

/// Default ring capacity when `ring` is given without one.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Why a trace specification failed to parse. Every variant carries the
/// offending fragment, so callers can match on the failure mode instead
/// of scraping a message string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `perfetto:` with nothing after the colon.
    PerfettoNeedsPath,
    /// `ring:CAP` where `CAP` is not an unsigned integer.
    BadRingCapacity {
        /// The unparsable capacity text.
        given: String,
    },
    /// `ring:0` — a ring that can hold nothing.
    ZeroRingCapacity,
    /// `ring:CAP:` with nothing after the second colon.
    RingNeedsPath,
    /// `cat` with no `:LIST`.
    CatNeedsList,
    /// A category word in `cat:LIST` is not a known category.
    UnknownCategory(UnknownCategory),
    /// A clause word is none of `perfetto`, `ring`, `cat`.
    UnknownClause {
        /// The unrecognized clause word.
        clause: String,
    },
    /// The spec parsed but attaches no sink at all.
    NoSink,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::PerfettoNeedsPath => {
                write!(f, "`perfetto:` needs a path after the colon")
            }
            SpecError::BadRingCapacity { given } => {
                write!(f, "bad ring capacity `{given}` (want an event count)")
            }
            SpecError::ZeroRingCapacity => write!(f, "ring capacity must be at least 1"),
            SpecError::RingNeedsPath => {
                write!(f, "`ring:CAP:` needs a path after the colon")
            }
            SpecError::CatNeedsList => {
                write!(f, "`cat` needs a `+`-separated list, e.g. `cat:msg+op`")
            }
            SpecError::UnknownCategory(e) => write!(f, "{e}"),
            SpecError::UnknownClause { clause } => write!(
                f,
                "unknown trace clause `{clause}` (expected `perfetto[:PATH]`, \
                 `ring[:CAP[:PATH]]`, or `cat:LIST`)"
            ),
            SpecError::NoSink => {
                write!(f, "trace spec enables no sink (add `perfetto` or `ring`)")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::UnknownCategory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownCategory> for SpecError {
    fn from(e: UnknownCategory) -> Self {
        SpecError::UnknownCategory(e)
    }
}

impl Default for TraceSpec {
    /// No sink, every category, no output paths.
    fn default() -> Self {
        TraceSpec {
            perfetto: false,
            out: None,
            ring: None,
            ring_out: None,
            cats: Categories::all(),
        }
    }
}

impl TraceSpec {
    /// The spec produced by a bare `--trace`: Perfetto sink, all
    /// categories, default output directory, no ring.
    pub fn bare() -> Self {
        TraceSpec {
            perfetto: true,
            ..TraceSpec::default()
        }
    }

    /// Parses a trace specification.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SpecError`] on unknown clauses, unknown
    /// categories, or malformed capacities.
    ///
    /// # Examples
    ///
    /// ```
    /// use dsm_trace::TraceSpec;
    ///
    /// // The common cases: `--trace` / `DSM_TRACE=1`.
    /// assert_eq!(TraceSpec::from_spec("").unwrap(), TraceSpec::bare());
    /// assert_eq!(TraceSpec::from_spec("on").unwrap(), TraceSpec::bare());
    ///
    /// // Explicit output file, restricted categories.
    /// let spec = TraceSpec::from_spec("perfetto:out/run.json,cat:msg+op").unwrap();
    /// assert_eq!(spec.out.as_deref(), Some(std::path::Path::new("out/run.json")));
    /// assert!(spec.cats.contains(dsm_trace::Category::Msg));
    /// assert!(!spec.cats.contains(dsm_trace::Category::State));
    ///
    /// // Ring buffer with a capacity, alongside Perfetto.
    /// let spec = TraceSpec::from_spec("perfetto,ring:1024").unwrap();
    /// assert_eq!(spec.ring, Some(1024));
    ///
    /// // Ring only.
    /// let spec = TraceSpec::from_spec("ring").unwrap();
    /// assert!(!spec.perfetto);
    /// assert_eq!(spec.ring, Some(dsm_trace::spec::DEFAULT_RING_CAPACITY));
    ///
    /// // Errors are typed.
    /// use dsm_trace::spec::SpecError;
    /// assert!(matches!(
    ///     TraceSpec::from_spec("bogus"),
    ///     Err(SpecError::UnknownClause { .. })
    /// ));
    /// assert!(matches!(
    ///     TraceSpec::from_spec("cat:msg+nope"),
    ///     Err(SpecError::UnknownCategory(_))
    /// ));
    /// assert!(matches!(
    ///     TraceSpec::from_spec("ring:zillion"),
    ///     Err(SpecError::BadRingCapacity { .. })
    /// ));
    /// ```
    pub fn from_spec(spec: &str) -> Result<TraceSpec, SpecError> {
        let spec = spec.trim();
        if matches!(spec, "" | "1" | "on" | "default") {
            return Ok(TraceSpec::bare());
        }
        let mut out = TraceSpec::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            let (word, rest) = match clause.split_once(':') {
                Some((w, r)) => (w, Some(r)),
                None => (clause, None),
            };
            match word {
                "perfetto" => {
                    out.perfetto = true;
                    if let Some(path) = rest {
                        if path.is_empty() {
                            return Err(SpecError::PerfettoNeedsPath);
                        }
                        out.out = Some(PathBuf::from(path));
                    }
                }
                "ring" => {
                    let mut cap = DEFAULT_RING_CAPACITY;
                    if let Some(rest) = rest {
                        let (cap_str, path) = match rest.split_once(':') {
                            Some((c, p)) => (c, Some(p)),
                            None => (rest, None),
                        };
                        cap = cap_str
                            .parse::<usize>()
                            .map_err(|_| SpecError::BadRingCapacity {
                                given: cap_str.into(),
                            })?;
                        if cap == 0 {
                            return Err(SpecError::ZeroRingCapacity);
                        }
                        if let Some(path) = path {
                            if path.is_empty() {
                                return Err(SpecError::RingNeedsPath);
                            }
                            out.ring_out = Some(PathBuf::from(path));
                        }
                    }
                    out.ring = Some(cap);
                }
                "cat" => {
                    let list = rest.ok_or(SpecError::CatNeedsList)?;
                    out.cats = list.parse()?;
                }
                other => {
                    return Err(SpecError::UnknownClause {
                        clause: other.into(),
                    });
                }
            }
        }
        if !out.perfetto && out.ring.is_none() {
            return Err(SpecError::NoSink);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;

    #[test]
    fn bare_forms_mean_default() {
        for s in ["", "1", "on", "default", "  on  "] {
            assert_eq!(TraceSpec::from_spec(s).unwrap(), TraceSpec::bare());
        }
        assert!(TraceSpec::bare().perfetto);
        let none = TraceSpec::default();
        assert!(
            !none.perfetto && none.ring.is_none(),
            "default attaches no sink"
        );
    }

    #[test]
    fn ring_with_cap_and_path() {
        let spec = TraceSpec::from_spec("ring:512:dump.bin").unwrap();
        assert_eq!(spec.ring, Some(512));
        assert_eq!(
            spec.ring_out.as_deref(),
            Some(std::path::Path::new("dump.bin"))
        );
        assert!(!spec.perfetto);
    }

    #[test]
    fn directory_output() {
        let spec = TraceSpec::from_spec("perfetto:mydir").unwrap();
        assert_eq!(spec.out.as_deref(), Some(std::path::Path::new("mydir")));
    }

    #[test]
    fn categories_restrict() {
        let spec = TraceSpec::from_spec("perfetto,cat:queue").unwrap();
        assert!(spec.cats.contains(Category::Queue));
        assert!(!spec.cats.contains(Category::Msg));
        let spec = TraceSpec::from_spec("perfetto,cat:span+op").unwrap();
        assert!(spec.cats.contains(Category::Span));
        assert!(!spec.cats.contains(Category::Queue));
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            TraceSpec::from_spec("perfetto:"),
            Err(SpecError::PerfettoNeedsPath)
        );
        assert_eq!(
            TraceSpec::from_spec("ring:0"),
            Err(SpecError::ZeroRingCapacity)
        );
        assert_eq!(
            TraceSpec::from_spec("ring:8:"),
            Err(SpecError::RingNeedsPath)
        );
        assert_eq!(
            TraceSpec::from_spec("ring:many"),
            Err(SpecError::BadRingCapacity {
                given: "many".into()
            })
        );
        assert_eq!(TraceSpec::from_spec("cat"), Err(SpecError::CatNeedsList));
        assert_eq!(
            TraceSpec::from_spec("cat:msg,nothing"),
            Err(SpecError::UnknownClause {
                clause: "nothing".into()
            })
        );
        assert_eq!(TraceSpec::from_spec("ring,cat:"), {
            Err(SpecError::UnknownCategory(UnknownCategory {
                word: "".into(),
            }))
        });
    }

    /// The satellite fix: an unknown category name inside `cat:LIST` is
    /// a typed, matchable rejection — it must never be silently dropped
    /// from the set.
    #[test]
    fn unknown_category_is_a_typed_rejection() {
        match TraceSpec::from_spec("perfetto,cat:msg+typo+op") {
            Err(SpecError::UnknownCategory(e)) => {
                assert_eq!(e.word, "typo");
                assert!(e.to_string().contains("`typo`"));
            }
            other => panic!("expected UnknownCategory, got {other:?}"),
        }
        // Same for the FromStr impl used directly.
        let err = "msg+bogus".parse::<Categories>().unwrap_err();
        assert_eq!(err.word, "bogus");
    }

    #[test]
    fn no_sink_is_rejected() {
        assert_eq!(TraceSpec::from_spec("cat:msg"), Err(SpecError::NoSink));
    }
}
