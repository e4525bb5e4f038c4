//! The run environment: every knob that configures a run from outside
//! the job key. [`RunEnv::from_env`] is the only library code that reads
//! `DSM_*` variables; [`RunEnv::current`] is the innermost
//! [`RunEnv::scope`] on this thread, else the process environment, read
//! once. [`MachineBuilder`](crate::MachineBuilder) takes its defaults
//! from it, and [`RunEnv::key`] keys the runner's caches and reproducers.

use dsm_sim::{FaultConfig, ProtoSpec};
use dsm_trace::TraceSpec;
use std::cell::RefCell;
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// One run's configuration from outside the job key. `Default` is the
/// environment with no `DSM_*` variable set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEnv {
    /// Faults and paranoid checking for machines whose configuration
    /// has no fault settings (`DSM_FAULTS`, `DSM_PARANOID=1`).
    pub faults: FaultConfig,
    /// Protocol overrides, `hna` included, for machines built with the
    /// default protocol (`DSM_PROTO`).
    pub proto: ProtoSpec,
    /// Tracing for machines built without a trace spec (`DSM_TRACE`).
    pub trace: Option<TraceSpec>,
    /// Runner workers (`DSM_JOBS`; `None` = available parallelism).
    pub jobs: Option<usize>,
    /// Log every job completion to stderr (`DSM_PROGRESS`).
    pub progress: bool,
    /// Persistent result cache directory (`DSM_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Reproducer directory for deterministic failures (`DSM_REPRO_DIR`).
    pub repro_dir: Option<PathBuf>,
}

/// The part of a [`RunEnv`] that can change a simulated result.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EnvKey {
    /// Fault settings, paranoid checking included.
    pub faults: FaultConfig,
    /// Protocol overrides, home-node atomics included.
    pub proto: ProtoSpec,
}

impl Default for RunEnv {
    fn default() -> Self {
        RunEnv::from_vars(|_| None).expect("the empty environment parses")
    }
}

thread_local! {
    /// The innermost [`RunEnv::scope`] on this thread.
    static SCOPE: RefCell<Option<Arc<RunEnv>>> = const { RefCell::new(None) };
}

impl RunEnv {
    /// Reads the `DSM_*` variables of the process environment.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable if `DSM_FAULTS`,
    /// `DSM_PROTO` or `DSM_TRACE` holds a malformed spec.
    pub fn from_env() -> Result<RunEnv, String> {
        RunEnv::from_vars(|name| std::env::var_os(name))
    }

    /// [`from_env`](RunEnv::from_env) over any variable lookup, with its
    /// errors. Unparsable numbers and empty directories count as unset.
    fn from_vars(var: impl Fn(&str) -> Option<OsString>) -> Result<RunEnv, String> {
        let text = |name: &str| var(name).and_then(|v| v.into_string().ok());
        let number = |name: &str| text(name).and_then(|v| v.trim().parse::<u64>().ok());
        let dir = |name: &str| var(name).filter(|v| !v.is_empty()).map(PathBuf::from);
        /// Parses the spec `text` of variable `name`, if set.
        fn spec<T, E: std::fmt::Display>(
            name: &str,
            text: Option<String>,
            parse: impl Fn(&str) -> Result<T, E>,
        ) -> Result<Option<T>, String> {
            let parsed = text.map(|spec| parse(&spec)).transpose();
            parsed.map_err(|e| format!("invalid {name} spec: {e}"))
        }
        let mut faults =
            spec("DSM_FAULTS", text("DSM_FAULTS"), FaultConfig::from_spec)?.unwrap_or_default();
        faults.paranoid = text("DSM_PARANOID").is_some_and(|v| v == "1");
        Ok(RunEnv {
            faults,
            proto: spec("DSM_PROTO", text("DSM_PROTO"), ProtoSpec::from_spec)?.unwrap_or_default(),
            trace: spec("DSM_TRACE", text("DSM_TRACE"), TraceSpec::from_spec)?,
            jobs: number("DSM_JOBS").map(|n| usize::try_from(n).unwrap_or(usize::MAX).max(1)),
            progress: var("DSM_PROGRESS").is_some(),
            cache_dir: dir("DSM_CACHE_DIR"),
            repro_dir: dir("DSM_REPRO_DIR"),
        })
    }

    /// The environment in force on this thread: the innermost
    /// [`scope`](RunEnv::scope), else the process environment.
    ///
    /// # Panics
    ///
    /// Panics, outside any scope, if the process environment holds a
    /// malformed spec.
    pub fn current() -> Arc<RunEnv> {
        static PROCESS: OnceLock<Arc<RunEnv>> = OnceLock::new();
        SCOPE.with(|s| s.borrow().clone()).unwrap_or_else(|| {
            let process = || Arc::new(RunEnv::from_env().unwrap_or_else(|e| panic!("{e}")));
            Arc::clone(PROCESS.get_or_init(process))
        })
    }

    /// Runs `f` with `env` in force on this thread, restoring the
    /// previous environment afterwards (also on panic). Threads `f`
    /// spawns start outside the scope.
    pub fn scope<R>(env: impl Into<Arc<RunEnv>>, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<RunEnv>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPE.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(SCOPE.with(|s| s.borrow_mut().replace(env.into())));
        f()
    }

    /// The part of this environment that can change a simulated result.
    pub fn key(&self) -> EnvKey {
        EnvKey {
            faults: self.faults.clone(),
            proto: self.proto,
        }
    }

    /// The runner's worker count: [`jobs`](RunEnv::jobs), else the
    /// host's available parallelism; at least 1.
    pub fn workers(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Result<RunEnv, String> {
        let vars: HashMap<String, OsString> = vars
            .iter()
            .map(|&(k, v)| (k.to_string(), OsString::from(v)))
            .collect();
        RunEnv::from_vars(|name| vars.get(name).cloned())
    }

    #[test]
    fn no_variables_is_the_default() {
        assert_eq!(parse(&[]).unwrap(), RunEnv::default());
    }

    #[test]
    fn every_variable_is_read() {
        let env = parse(&[
            ("DSM_FAULTS", "heavy"),
            ("DSM_PARANOID", "1"),
            ("DSM_PROTO", "hna, mesif"),
            ("DSM_TRACE", "1"),
            ("DSM_JOBS", " 3 "),
            ("DSM_PROGRESS", ""),
            ("DSM_CACHE_DIR", "cache"),
            ("DSM_REPRO_DIR", "repro"),
        ])
        .unwrap();
        let mut faults = FaultConfig::heavy();
        faults.paranoid = true;
        assert_eq!(env.faults, faults);
        assert_eq!(env.proto, ProtoSpec::from_spec("mesif,hna").unwrap());
        assert_eq!(env.trace, Some(TraceSpec::bare()));
        assert_eq!((env.jobs, env.progress), (Some(3), true));
        assert_eq!(env.cache_dir, Some(PathBuf::from("cache")));
        assert_eq!(env.repro_dir, Some(PathBuf::from("repro")));
    }

    #[test]
    fn specs_are_canonical_and_validated() {
        let light = parse(&[("DSM_FAULTS", "light")]).unwrap();
        let spelled = parse(&[("DSM_FAULTS", &FaultConfig::light().to_spec())]).unwrap();
        assert_eq!(light.key(), spelled.key());
        for (var, spec) in [
            ("DSM_FAULTS", "bogus"),
            ("DSM_PROTO", "bogus"),
            ("DSM_TRACE", "bogus"),
        ] {
            let err = parse(&[(var, spec)]).unwrap_err();
            assert!(err.contains(var), "{err}");
        }
    }

    #[test]
    fn lenient_numbers_and_directories() {
        let env = parse(&[
            ("DSM_PARANOID", "yes"),
            ("DSM_JOBS", "0"),
            ("DSM_CACHE_DIR", ""),
        ])
        .unwrap();
        assert!(!env.faults.paranoid);
        assert_eq!(env.jobs, Some(1));
        assert_eq!(env.cache_dir, None);
        assert_eq!(parse(&[("DSM_JOBS", "many")]).unwrap().jobs, None);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = RunEnv::current();
        let a = RunEnv {
            progress: true,
            ..RunEnv::default()
        };
        RunEnv::scope(a.clone(), || {
            assert_eq!(*RunEnv::current(), a);
            let b = Arc::new(RunEnv {
                jobs: Some(3),
                ..a.clone()
            });
            RunEnv::scope(Arc::clone(&b), || assert_eq!(RunEnv::current(), b));
            assert_eq!(*RunEnv::current(), a);
            let unwound = std::panic::catch_unwind(|| {
                RunEnv::scope(RunEnv::default(), || panic!("unwinds through the scope"))
            });
            assert!(unwound.is_err());
            assert_eq!(*RunEnv::current(), a);
        });
        assert_eq!(RunEnv::current(), outer);
    }
}
