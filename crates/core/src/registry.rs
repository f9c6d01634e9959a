//! The one name registry behind [`StrategyRegistry`](crate::StrategyRegistry),
//! [`ScenarioRegistry`](crate::ScenarioRegistry) and
//! [`EngineRegistry`](crate::EngineRegistry): the spec grammar, name
//! normalization, late-bound aliases, resolution and the help table.

use std::collections::BTreeMap;
use std::sync::Arc;

use blockpart_metrics::Table;
use blockpart_types::Duration;

/// An error from resolution or registration in any registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyError(String);

impl StrategyError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        StrategyError(msg.into())
    }
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StrategyError {}

/// Key=value parameters attached to a spec string
/// (`r-metis[window=7]` → `{window: "7"}`).
///
/// # Examples
///
/// ```
/// use blockpart_core::StrategyParams;
///
/// let p = StrategyParams::parse("window=7;cut=0.4").unwrap();
/// assert_eq!(p.f64("cut").unwrap(), Some(0.4));
/// assert_eq!(p.days("window").unwrap().unwrap().as_secs(), 7 * 86_400);
/// assert_eq!(p.f64("absent").unwrap(), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrategyParams {
    entries: BTreeMap<String, String>,
}

impl StrategyParams {
    /// Parses `key=value` pairs separated by `;` or `,`. Errors name a
    /// *strategy* parameter; each registry parses with its own noun.
    pub fn parse(text: &str) -> Result<Self, StrategyError> {
        Self::parse_as("strategy", text)
    }

    /// Like [`parse`](Self::parse), naming the parameter's owner as a
    /// `kind` in errors.
    fn parse_as(kind: &str, text: &str) -> Result<Self, StrategyError> {
        let mut entries = BTreeMap::new();
        for pair in text.split([';', ',']).filter(|p| !p.trim().is_empty()) {
            let malformed = || {
                StrategyError::new(format!(
                    "malformed {kind} parameter `{pair}` (expected key=value)"
                ))
            };
            let (key, value) = pair.split_once('=').ok_or_else(malformed)?;
            let (key, value) = (key.trim().to_string(), value.trim().to_string());
            if key.is_empty() || value.is_empty() {
                return Err(malformed());
            }
            if entries.insert(key.clone(), value).is_some() {
                return Err(StrategyError::new(format!(
                    "duplicate {kind} parameter `{key}`"
                )));
            }
        }
        Ok(StrategyParams { entries })
    }

    /// `true` when no parameters were given.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Parses `key` as an `f64`.
    pub fn f64(&self, key: &str) -> Result<Option<f64>, StrategyError> {
        self.get(key)
            .map(|v| {
                v.parse::<f64>().map_err(|_| {
                    StrategyError::new(format!("parameter `{key}`: `{v}` is not a number"))
                })
            })
            .transpose()
    }

    /// Parses `key` as a positive duration in days (fractional days
    /// allowed, rounded to whole hours, minimum one hour).
    pub fn days(&self, key: &str) -> Result<Option<Duration>, StrategyError> {
        self.f64(key)?
            .map(|d| {
                if !d.is_finite() || d <= 0.0 {
                    return Err(StrategyError::new(format!(
                        "parameter `{key}`: `{d}` is not a positive number of days"
                    )));
                }
                let hours = (d * 24.0).round().max(1.0) as u64;
                Ok(Duration::hours(hours))
            })
            .transpose()
    }

    /// The parameters re-rendered canonically: `key=value` pairs with
    /// values verbatim, sorted by key, `;`-joined. Registry-built labels
    /// embed this form so a spec string round-trips as a report lookup
    /// key.
    pub fn canonical_string(&self) -> String {
        self.entries
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses `key` as a positive integer.
    pub fn usize(&self, key: &str) -> Result<Option<usize>, StrategyError> {
        self.get(key)
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(StrategyError::new(format!(
                    "parameter `{key}`: `{v}` is not a positive integer"
                ))),
            })
            .transpose()
    }

    /// Errors when a parameter outside `allowed` was supplied.
    pub fn ensure_known(&self, strategy: &str, allowed: &[&str]) -> Result<(), StrategyError> {
        self.ensure_known_as("strategy", strategy, allowed)
    }

    /// Like [`ensure_known`](Self::ensure_known), but names the owner as
    /// a `kind` (e.g. "scenario") in the error message.
    pub fn ensure_known_as(
        &self,
        kind: &str,
        owner: &str,
        allowed: &[&str],
    ) -> Result<(), StrategyError> {
        for key in self.entries.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(StrategyError::new(format!(
                    "{kind} `{owner}` does not take parameter `{key}` (accepted: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                )));
            }
        }
        Ok(())
    }
}

/// Normalizes a name for lookup: lowercase, `-`/`_` stripped.
fn normalize_name(name: &str) -> String {
    name.trim()
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .flat_map(char::to_lowercase)
        .collect()
}

/// Normalizes a full spec string (`name` or `name[params]`) into a
/// lookup key: normalized name plus canonically re-rendered parameters.
/// Registry-built labels embed [`StrategyParams::canonical_string`], so
/// the spec string a strategy was resolved from and the label its runs
/// carry map to the same key.
pub(crate) fn spec_lookup_key(spec: &str) -> String {
    let spec = spec.trim();
    if let Some((name, rest)) = spec.split_once('[') {
        if let Some(body) = rest.strip_suffix(']') {
            if let Ok(params) = StrategyParams::parse(body) {
                if params.is_empty() {
                    return normalize_name(name);
                }
                return format!("{}[{}]", normalize_name(name), params.canonical_string());
            }
        }
    }
    normalize_name(spec)
}

/// Splits on commas not enclosed in `[...]`.
fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '[' => {
                depth += 1;
                current.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut current));
            }
            c => current.push(c),
        }
    }
    parts.push(current);
    parts.retain(|p| !p.trim().is_empty());
    parts
}

/// What a [`Registry`] resolves names to.
pub trait RegistryItem: Clone + Send + Sync + 'static {
    /// The noun naming the registry in listings and errors
    /// (`"strategy"`, `"scenario"`, `"engine"`).
    const NOUN: &'static str;
}

/// A factory: builds an item from parsed parameters.
pub type Factory<T> = dyn Fn(&StrategyParams) -> Result<T, StrategyError> + Send + Sync;

enum EntryKind<T> {
    Factory(Arc<Factory<T>>),
    /// A late-bound alias: the normalized key of the target entry,
    /// resolved at lookup time so re-registering the target retargets
    /// the alias too.
    Alias(String),
}

struct Entry<T> {
    /// Normalized lookup key (`rmetis`).
    key: String,
    /// The spelling the entry was registered under (`r-metis`), shown in
    /// listings and errors.
    display: String,
    description: String,
    params_help: String,
    kind: EntryKind<T>,
}

impl<T> Entry<T> {
    /// The key this entry resolves through: its own, or its target's.
    fn target_key(&self) -> &str {
        match &self.kind {
            EntryKind::Factory(_) => &self.key,
            EntryKind::Alias(target_key) => target_key,
        }
    }
}

/// Name → item resolution over spec strings of one grammar,
/// `name[key=value;key=value]`:
///
/// * names are looked up case-insensitively, ignoring `-`/`_`
///   (`r-metis`, `rmetis` and `R_METIS` are one entry);
/// * the bracketed parameters parse into [`StrategyParams`] and are
///   handed to the entry's factory;
/// * aliases bind late: re-registering the target retargets the alias;
/// * lists split on commas outside `[...]`.
///
/// The registries differ only in what they resolve to and in the noun
/// ([`RegistryItem::NOUN`]) that names them in listings and errors.
pub struct Registry<T> {
    entries: Vec<Entry<T>>,
}

impl<T: RegistryItem> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(T::NOUN, &self.names())
            .finish()
    }
}

impl<T: RegistryItem> Registry<T> {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// Registers a fixed item under `name`, replacing any existing entry
    /// with the same (normalized) name. The entry rejects parameters;
    /// use [`register_factory`](Self::register_factory) for
    /// parameterized items.
    pub fn register(&mut self, name: &str, description: &str, item: T) {
        let owned_name = name.to_string();
        self.register_factory(name, description, "", move |params| {
            params.ensure_known_as(T::NOUN, &owned_name, &[])?;
            Ok(item.clone())
        });
    }

    /// Registers a parameterized factory under `name`, replacing any
    /// existing entry with the same (normalized) name. `params_help` is
    /// the human-readable parameter summary shown by
    /// [`help_table`](Self::help_table) (empty for none).
    pub fn register_factory(
        &mut self,
        name: &str,
        description: &str,
        params_help: &str,
        factory: impl Fn(&StrategyParams) -> Result<T, StrategyError> + Send + Sync + 'static,
    ) {
        let kind = EntryKind::Factory(Arc::new(factory));
        self.insert(name, description.to_string(), params_help, kind);
    }

    /// Registers `alias` to resolve exactly like `target`. The binding
    /// is late: re-registering `target` retargets the alias too.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not registered.
    pub fn register_alias(&mut self, alias: &str, target: &str) {
        let target_entry = self
            .entry(target)
            .unwrap_or_else(|| panic!("alias target `{target}` is not registered"));
        let description = format!("alias of {}", target_entry.display);
        let kind = EntryKind::Alias(target_entry.key.clone());
        self.insert(alias, description, "", kind);
    }

    /// Adds an entry, replacing any with the same normalized name.
    fn insert(&mut self, name: &str, description: String, params_help: &str, kind: EntryKind<T>) {
        let key = normalize_name(name);
        assert!(!key.is_empty(), "{} name must be non-empty", T::NOUN);
        self.entries.retain(|e| e.key != key);
        self.entries.push(Entry {
            key,
            display: name.trim().to_string(),
            description,
            params_help: params_help.to_string(),
            kind,
        });
    }

    fn entry(&self, name: &str) -> Option<&Entry<T>> {
        let key = normalize_name(name);
        self.entries.iter().find(|e| e.key == key)
    }

    /// `true` when `name` resolves (ignoring parameters).
    pub fn contains(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// The registered names as they were registered (registration
    /// order, aliases included).
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.display.as_str()).collect()
    }

    /// The display names of the registered factories (no aliases), in
    /// registration order.
    pub fn factory_names(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::Factory(_)))
            .map(|e| e.display.as_str())
            .collect()
    }

    /// Resolves one spec string: `name` or `name[key=value;key=value]`.
    pub fn resolve(&self, spec: &str) -> Result<T, StrategyError> {
        let spec = spec.trim();
        let (name, params) = match spec.split_once('[') {
            None => (spec, StrategyParams::default()),
            Some((name, rest)) => {
                let Some(body) = rest.strip_suffix(']') else {
                    return Err(StrategyError::new(format!(
                        "unclosed `[` in {} spec `{spec}`",
                        T::NOUN
                    )));
                };
                (name.trim(), StrategyParams::parse_as(T::NOUN, body)?)
            }
        };
        let Some(entry) = self.entry(name) else {
            return Err(StrategyError::new(format!(
                "unknown {} `{name}` (registered: {})",
                T::NOUN,
                self.names().join(", ")
            )));
        };
        (self.factory_of(entry)?)(&params)
    }

    /// The entry `entry` resolves through (itself, or an alias's
    /// target), if that is registered.
    fn target_of(&self, entry: &Entry<T>) -> Option<&Entry<T>> {
        self.entries.iter().find(|e| e.key == entry.target_key())
    }

    /// The factory behind an entry, following one alias hop.
    fn factory_of<'e>(&'e self, entry: &'e Entry<T>) -> Result<&'e Factory<T>, StrategyError> {
        match self.target_of(entry).map(|e| &e.kind) {
            Some(EntryKind::Factory(f)) => Ok(f.as_ref()),
            _ => Err(StrategyError::new(format!(
                "alias `{}` points at `{}`, which is no longer registered",
                entry.display,
                entry.target_key()
            ))),
        }
    }

    /// Resolves a comma-separated list of spec strings (commas inside
    /// `[...]` do not split), pairing each item with the spec string
    /// that produced it. The word `all` expands to `all()` unless an
    /// entry was registered under that name, which then takes
    /// precedence. An empty list is an error: a misconfigured caller
    /// should not silently run nothing.
    pub(crate) fn resolve_list_with(
        &self,
        specs: &str,
        all: impl Fn() -> Result<Vec<(T, String)>, StrategyError>,
    ) -> Result<Vec<(T, String)>, StrategyError> {
        let mut out = Vec::new();
        for part in split_top_level(specs) {
            if normalize_name(&part) == "all" && !self.contains("all") {
                out.extend(all()?);
            } else {
                out.push((self.resolve(&part)?, part.trim().to_string()));
            }
        }
        if out.is_empty() {
            return Err(StrategyError::new(format!(
                "empty {} list `{specs}` (registered: {})",
                T::NOUN,
                self.names().join(", ")
            )));
        }
        Ok(out)
    }

    /// Renders the registry as a help table (name, parameters,
    /// description); aliases show their target's parameters.
    pub fn help_table(&self) -> Table {
        let mut t = Table::new(vec![T::NOUN, "parameters", "description"]);
        for e in &self.entries {
            let params_help = self
                .target_of(e)
                .map(|t| t.params_help.clone())
                .unwrap_or_default();
            t.row(vec![e.display.clone(), params_help, e.description.clone()]);
        }
        t
    }
}
