//! The execution-engine registry: [`EngineRegistry`].
//!
//! The runtime executes every intra-shard transaction through a
//! pluggable [`ExecutionEngine`](blockpart_ethereum::ExecutionEngine)
//! behind an [`ExecHandle`]. [`EngineRegistry`] is the shared name
//! [`Registry`](crate::Registry) over engine handles: lookup is
//! case-insensitive and ignores `-`/`_`, and a spec may parameterize the
//! engine as `name[key=value;key=value]`.
//!
//! Two engines ship as built-ins:
//!
//! * `serial` — the historical one-at-a-time path (the default).
//! * `parallel[lanes=0;retry=4;window=32]` — the Block-STM-style
//!   optimistic scheduler (`block-stm` is an alias). `lanes=0` sizes the
//!   lane pool from the host (respecting `BLOCKPART_THREADS`).
//!
//! # Examples
//!
//! ```
//! use blockpart_core::EngineRegistry;
//!
//! let registry = EngineRegistry::with_builtins();
//! let engine = registry.resolve("parallel[lanes=2]").unwrap();
//! assert_eq!(engine.name(), "parallel[lanes=2;retry=4;window=32]");
//! assert_eq!(registry.resolve("SERIAL").unwrap().name(), "serial");
//! assert!(registry.resolve("no-such-engine").is_err());
//! ```

use blockpart_ethereum::ExecHandle;

use crate::registry::{Factory, Registry, RegistryItem, StrategyError, StrategyParams};

/// An engine factory: builds a configured engine handle from parsed
/// parameters.
pub type EngineFactory = Factory<ExecHandle>;

impl RegistryItem for ExecHandle {
    const NOUN: &'static str = "engine";
}

/// Name → execution-engine resolution: a [`Registry`] over engine
/// handles.
///
/// # Examples
///
/// Registering a custom engine:
///
/// ```
/// use blockpart_core::EngineRegistry;
/// use blockpart_ethereum::{ExecHandle, SerialEngine};
///
/// let mut registry = EngineRegistry::with_builtins();
/// registry.register("careful", "serial, but audited", ExecHandle::new(SerialEngine));
/// assert_eq!(registry.resolve("careful").unwrap().name(), "serial");
/// ```
pub type EngineRegistry = Registry<ExecHandle>;

impl EngineRegistry {
    /// A registry with the built-in engines: `serial`, `parallel` (with
    /// its `block-stm` alias).
    pub fn with_builtins() -> Self {
        let mut reg = Self::empty();
        reg.register_factory(
            "serial",
            "one transaction at a time, in block order (the default)",
            "",
            |params| {
                params.ensure_known_as("engine", "serial", &[])?;
                Ok(ExecHandle::new(blockpart_ethereum::SerialEngine))
            },
        );
        reg.register_factory(
            "parallel",
            "Block-STM-style optimistic scheduler: speculate in parallel, \
             validate and commit in block order",
            "lanes=<n|0=auto>, retry=<n>, window=<n>",
            |params| {
                params.ensure_known_as("engine", "parallel", &["lanes", "retry", "window"])?;
                let mut engine = blockpart_ethereum::ParallelEngine::new();
                if let Some(lanes) = parse_count(params, "lanes")? {
                    engine = engine.with_lanes(lanes);
                }
                if let Some(retry) = parse_count(params, "retry")? {
                    engine = engine.with_retry(retry as u32);
                }
                if let Some(window) = params.usize("window")? {
                    engine = engine.with_window(window);
                }
                Ok(ExecHandle::new(engine))
            },
        );
        reg.register_alias("block-stm", "parallel");
        reg
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::with_builtins()
    }
}

/// Parses a non-negative count (unlike [`StrategyParams::usize`], zero
/// is allowed — `lanes=0` and `retry=0` are meaningful).
fn parse_count(params: &StrategyParams, key: &str) -> Result<Option<usize>, StrategyError> {
    params
        .get(key)
        .map(|v| {
            v.parse::<usize>().map_err(|_| {
                StrategyError::new(format!(
                    "parameter `{key}`: `{v}` is not a non-negative integer"
                ))
            })
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_and_default_to_serial_semantics() {
        let reg = EngineRegistry::with_builtins();
        assert_eq!(reg.resolve("serial").unwrap().name(), "serial");
        assert_eq!(
            reg.resolve("parallel").unwrap().name(),
            "parallel[lanes=0;retry=4;window=32]"
        );
        assert!(reg.resolve("serial").unwrap().speculation_window() == 0);
        assert!(reg.resolve("parallel").unwrap().speculation_window() > 0);
    }

    #[test]
    fn lookup_is_name_normalized() {
        let reg = EngineRegistry::with_builtins();
        for name in ["SERIAL", " serial ", "se_rial"] {
            assert_eq!(reg.resolve(name).unwrap().name(), "serial", "{name}");
        }
        // block-stm aliases parallel, dash-insensitively
        assert!(reg
            .resolve("BlockSTM[lanes=3]")
            .unwrap()
            .name()
            .starts_with("parallel[lanes=3"));
    }

    #[test]
    fn parameters_configure_the_parallel_engine() {
        let reg = EngineRegistry::with_builtins();
        let e = reg.resolve("parallel[lanes=2;retry=0;window=8]").unwrap();
        assert_eq!(e.name(), "parallel[lanes=2;retry=0;window=8]");
        assert_eq!(e.speculation_window(), 8);
    }

    #[test]
    fn unknown_engines_and_params_error_naming_the_token() {
        let reg = EngineRegistry::with_builtins();
        let err = reg.resolve("bogus").expect_err("should fail").to_string();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("serial") && err.contains("parallel"), "{err}");
        let err = reg
            .resolve("serial[lanes=2]")
            .expect_err("should fail")
            .to_string();
        assert!(err.contains("does not take parameter"), "{err}");
        let err = reg
            .resolve("parallel[lanes=-1]")
            .expect_err("should fail")
            .to_string();
        assert!(err.contains("non-negative"), "{err}");
        assert!(reg.resolve("parallel[window=0]").is_err(), "window >= 1");
        assert!(reg.resolve("parallel[lanes=").is_err());
    }

    #[test]
    fn registration_replaces_and_aliases_follow() {
        let mut reg = EngineRegistry::with_builtins();
        let n = reg.names().len();
        reg.register(
            "parallel",
            "overridden",
            ExecHandle::new(blockpart_ethereum::SerialEngine),
        );
        assert_eq!(reg.names().len(), n, "replacement, not duplication");
        assert_eq!(reg.resolve("parallel").unwrap().name(), "serial");
        // the alias is late-bound: it sees the replacement
        assert_eq!(reg.resolve("block-stm").unwrap().name(), "serial");
        assert!(reg.help_table().render_ascii().contains("overridden"));
    }
}
