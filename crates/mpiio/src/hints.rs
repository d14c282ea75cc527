//! MPI_Info hints, with the ROMIO-compatible key set.
//!
//! Every known hint is described by one entry in the [`HINT_SPECS`] table:
//! its key, its value kind ([`HintKind`]), and typed accessors. Parsing,
//! clamping, environment-variable defaults, and round-tripping all flow
//! through that single table, so adding a hint is one spec entry plus a
//! field — not another ad-hoc `match` arm with its own string handling.

use std::collections::BTreeMap;

/// Tri-state used by the `romio_cb_*` / `romio_ds_*` / `dafs_*` hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TriState {
    /// Use the optimization whenever it applies.
    Enable,
    /// Never use it.
    Disable,
    /// Let the implementation decide (the default).
    #[default]
    Automatic,
}

impl TriState {
    /// Parse a hint value, ROMIO-style: `enable`/`true` and
    /// `disable`/`false` are recognized; anything else (including garbage)
    /// means `Automatic`.
    pub fn parse(v: &str) -> TriState {
        match v {
            "enable" | "true" => TriState::Enable,
            "disable" | "false" => TriState::Disable,
            _ => TriState::Automatic,
        }
    }

    /// Canonical hint spelling; `parse(as_str(t)) == t` for every value.
    pub fn as_str(self) -> &'static str {
        match self {
            TriState::Enable => "enable",
            TriState::Disable => "disable",
            TriState::Automatic => "automatic",
        }
    }
}

/// The value kind of one hint key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintKind {
    /// Tri-state (`enable` / `disable` / anything-else-is-automatic).
    Tri,
    /// Byte size with a 4 KiB floor. With `zero_keeps_default`, a literal
    /// `0` leaves the field untouched (the driver default), like
    /// `striping_unit`.
    Size {
        /// Values below this clamp up to it.
        floor: u64,
        /// `0` keeps the prior/default value instead of being clamped.
        zero_keeps_default: bool,
    },
    /// Plain count (`cb_nodes`, `striping_factor`).
    Count,
}

impl HintKind {
    /// Parse one value of this kind. `None` means "keep the current
    /// field value" (unparsable numbers, or `0` where zero keeps the
    /// default); tri-states never return `None` — garbage parses to
    /// `Automatic`, exactly like the historical per-hint parsers.
    pub fn parse(self, v: &str) -> Option<HintValue> {
        match self {
            HintKind::Tri => Some(HintValue::Tri(TriState::parse(v))),
            HintKind::Count => v.parse().ok().map(HintValue::Count),
            HintKind::Size {
                floor,
                zero_keeps_default,
            } => match v.parse::<u64>() {
                Ok(0) if zero_keeps_default => None,
                Ok(n) => Some(HintValue::Size(n.max(floor))),
                Err(_) => None,
            },
        }
    }
}

/// A typed hint value: what [`Hints::get`] returns and what the spec
/// table's setters consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintValue {
    /// Tri-state hints.
    Tri(TriState),
    /// Byte-size hints.
    Size(u64),
    /// Count hints.
    Count(usize),
}

impl HintValue {
    /// Canonical hint-string spelling: parsing it back through the same
    /// spec yields an equal value (the round-trip property).
    pub fn to_hint_string(self) -> String {
        match self {
            HintValue::Tri(t) => t.as_str().to_string(),
            HintValue::Size(n) => n.to_string(),
            HintValue::Count(n) => n.to_string(),
        }
    }
}

/// One known hint: key, value kind, and typed field accessors.
pub struct HintSpec {
    /// The `MPI_Info` key.
    pub key: &'static str,
    /// How its values parse.
    pub kind: HintKind,
    set: fn(&mut Hints, HintValue),
    get: fn(&Hints) -> HintValue,
}

/// 4 KiB floor shared by every buffer-size hint.
const SIZE_FLOOR: HintKind = HintKind::Size {
    floor: 4096,
    zero_keeps_default: false,
};

/// The one table every hint flows through.
pub const HINT_SPECS: &[HintSpec] = &[
    HintSpec {
        key: "cb_nodes",
        kind: HintKind::Count,
        set: |h, v| {
            if let HintValue::Count(n) = v {
                h.cb_nodes = n;
            }
        },
        get: |h| HintValue::Count(h.cb_nodes),
    },
    HintSpec {
        key: "cb_buffer_size",
        kind: SIZE_FLOOR,
        set: |h, v| {
            if let HintValue::Size(n) = v {
                h.cb_buffer_size = n;
            }
        },
        get: |h| HintValue::Size(h.cb_buffer_size),
    },
    HintSpec {
        key: "ind_rd_buffer_size",
        kind: SIZE_FLOOR,
        set: |h, v| {
            if let HintValue::Size(n) = v {
                h.ind_rd_buffer_size = n;
            }
        },
        get: |h| HintValue::Size(h.ind_rd_buffer_size),
    },
    HintSpec {
        key: "ind_wr_buffer_size",
        kind: SIZE_FLOOR,
        set: |h, v| {
            if let HintValue::Size(n) = v {
                h.ind_wr_buffer_size = n;
            }
        },
        get: |h| HintValue::Size(h.ind_wr_buffer_size),
    },
    HintSpec {
        key: "romio_cb_read",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.cb_read = t;
            }
        },
        get: |h| HintValue::Tri(h.cb_read),
    },
    HintSpec {
        key: "romio_cb_write",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.cb_write = t;
            }
        },
        get: |h| HintValue::Tri(h.cb_write),
    },
    HintSpec {
        key: "romio_ds_read",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.ds_read = t;
            }
        },
        get: |h| HintValue::Tri(h.ds_read),
    },
    HintSpec {
        key: "romio_ds_write",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.ds_write = t;
            }
        },
        get: |h| HintValue::Tri(h.ds_write),
    },
    HintSpec {
        key: "romio_cb_pipeline",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.cb_pipeline = t;
            }
        },
        get: |h| HintValue::Tri(h.cb_pipeline),
    },
    HintSpec {
        key: "romio_cb_cache",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.cb_cache = t;
            }
        },
        get: |h| HintValue::Tri(h.cb_cache),
    },
    HintSpec {
        key: "dafs_listio",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.dafs_listio = t;
            }
        },
        get: |h| HintValue::Tri(h.dafs_listio),
    },
    HintSpec {
        key: "dafs_cache",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.dafs_cache = t;
            }
        },
        get: |h| HintValue::Tri(h.dafs_cache),
    },
    HintSpec {
        key: "dafs_qos",
        kind: HintKind::Tri,
        set: |h, v| {
            if let HintValue::Tri(t) = v {
                h.dafs_qos = t;
            }
        },
        get: |h| HintValue::Tri(h.dafs_qos),
    },
    HintSpec {
        key: "dafs_tenant_weight",
        kind: HintKind::Count,
        set: |h, v| {
            if let HintValue::Count(n) = v {
                h.dafs_tenant_weight = n.max(1) as u32;
            }
        },
        get: |h| HintValue::Count(h.dafs_tenant_weight as usize),
    },
    HintSpec {
        key: "striping_factor",
        kind: HintKind::Count,
        set: |h, v| {
            if let HintValue::Count(n) = v {
                h.striping_factor = n;
            }
        },
        get: |h| HintValue::Count(h.striping_factor),
    },
    HintSpec {
        key: "striping_unit",
        kind: HintKind::Size {
            floor: 4096,
            zero_keeps_default: true,
        },
        set: |h, v| {
            if let HintValue::Size(n) = v {
                h.striping_unit = n;
            }
        },
        get: |h| HintValue::Size(h.striping_unit),
    },
];

/// Look up the spec for `key`.
pub fn hint_spec(key: &str) -> Option<&'static HintSpec> {
    HINT_SPECS.iter().find(|s| s.key == key)
}

/// Tri-state hints whose sweep-wide default can come from an
/// `MPIO_DAFS_*` environment variable: `(hint key, env var)`.
pub const TRI_ENV_OVERRIDES: &[(&str, &str)] = &[
    ("dafs_listio", "MPIO_DAFS_LISTIO"),
    ("dafs_cache", "MPIO_DAFS_CACHE"),
    ("dafs_qos", "MPIO_DAFS_QOS"),
    ("romio_cb_cache", "MPIO_ROMIO_CB_CACHE"),
];

/// The value an `MPIO_DAFS_*` override variable contributes: its parsed
/// tri-state when set, `Automatic` when absent. Pure; the env read lives
/// in [`tri_env_default`].
pub fn tri_env_value(v: Option<&str>) -> TriState {
    match v {
        Some(v) => TriState::parse(v),
        None => TriState::Automatic,
    }
}

/// Uniform environment override for tri-state hints: the sweep-wide
/// default for a hint comes from its `MPIO_DAFS_*` variable, and an
/// explicit hint still wins. Used by every entry in
/// [`TRI_ENV_OVERRIDES`].
pub fn tri_env_default(var: &str) -> TriState {
    tri_env_value(std::env::var(var).ok().as_deref())
}

/// Parsed hints controlling the I/O strategies.
#[derive(Debug, Clone)]
pub struct Hints {
    /// Number of collective-buffering aggregators (0 = all ranks).
    pub cb_nodes: usize,
    /// Collective buffer size per aggregator, per phase.
    pub cb_buffer_size: u64,
    /// Data-sieving read buffer size.
    pub ind_rd_buffer_size: u64,
    /// Data-sieving write buffer size.
    pub ind_wr_buffer_size: u64,
    /// Collective buffering on reads.
    pub cb_read: TriState,
    /// Collective buffering on writes.
    pub cb_write: TriState,
    /// Data sieving on independent reads.
    pub ds_read: TriState,
    /// Data sieving on independent writes.
    pub ds_write: TriState,
    /// Double-buffered pipelining of the two-phase collective sweep
    /// (window k's file I/O overlapped with window k+1's exchange).
    /// `Automatic` means on; `disable` forces the strictly synchronous
    /// sweep.
    pub cb_pipeline: TriState,
    /// Cache-aware collective buffering: with this **and** `dafs_cache`
    /// enabled, two-phase aggregators write their aggregated windows
    /// through the lease-coherent write-back cache (the drain rides the
    /// coalesced `WriteList` flush at sync/close) and serve exchange
    /// reads from leased pages. `Automatic` means **off** — like
    /// `dafs_cache`, it changes when bytes reach the server, so it is
    /// strictly opt-in via `enable`; `disable` is byte-identical to the
    /// plain pipelined sweep. Inert on non-DAFS backends.
    pub cb_cache: TriState,
    /// Vectored list I/O on DAFS backends: ship a sorted `(offset, len)`
    /// list as one wire request instead of data-sieving the covering
    /// extent. `Automatic` means on where the backend supports it (DAFS);
    /// `disable` keeps the sieving path. Inert on NFS/UFS, which have no
    /// vectored op.
    pub dafs_listio: TriState,
    /// Lease-coherent client caching on DAFS backends: serve re-reads and
    /// getattrs from a client page/attribute cache under a server-issued
    /// lease, recalled when a conflicting writer appears. `Automatic`
    /// means **off** — unlike `dafs_listio`, caching changes the
    /// write-sharing cost model (recalls), so it is strictly opt-in via
    /// `enable`. Inert on non-DAFS backends.
    pub dafs_cache: TriState,
    /// QoS tenant declaration on DAFS backends: the open declares the
    /// MPI job as one tenant to the server's request scheduler, which
    /// apportions service by `dafs_tenant_weight` when fairness is on.
    /// `Automatic` means **off** (no declaration, wire bytes unchanged) —
    /// like `dafs_cache`, strictly opt-in via `enable`. Inert on non-DAFS
    /// backends and under a FIFO server.
    pub dafs_qos: TriState,
    /// Scheduling weight this job declares with `dafs_qos`; service under
    /// a weighted-fair server is proportional to weight. Clamped to ≥ 1.
    pub dafs_tenant_weight: u32,
    /// Number of servers to stripe a new file over (PVFS/ROMIO
    /// convention). 0 = all servers the filesystem has. Ignored by the
    /// NFS and UFS drivers.
    pub striping_factor: usize,
    /// Stripe (block) size in bytes for striped filesystems. 0 = the
    /// driver's default. Ignored by the NFS and UFS drivers.
    pub striping_unit: u64,
    /// Raw key/value pairs as supplied (inert keys are preserved, like
    /// `striping_unit` on filesystems that ignore it).
    pub raw: BTreeMap<String, String>,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
            cb_nodes: 0,
            cb_buffer_size: 4 << 20,
            ind_rd_buffer_size: 4 << 20,
            ind_wr_buffer_size: 512 << 10,
            cb_read: TriState::Automatic,
            cb_write: TriState::Automatic,
            ds_read: TriState::Automatic,
            ds_write: TriState::Automatic,
            cb_pipeline: TriState::Automatic,
            cb_cache: tri_env_default("MPIO_ROMIO_CB_CACHE"),
            dafs_listio: tri_env_default("MPIO_DAFS_LISTIO"),
            dafs_cache: tri_env_default("MPIO_DAFS_CACHE"),
            dafs_qos: tri_env_default("MPIO_DAFS_QOS"),
            dafs_tenant_weight: std::env::var("MPIO_DAFS_TENANT_WEIGHT")
                .ok()
                .and_then(|v| v.parse().ok())
                .map(|w: u32| w.max(1))
                .unwrap_or(1),
            striping_factor: 0,
            striping_unit: 0,
            raw: BTreeMap::new(),
        }
    }
}

impl Hints {
    /// Parse `(key, value)` pairs, ROMIO-style. Unknown keys are kept in
    /// `raw` and otherwise ignored.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Hints {
        let mut h = Hints::default();
        for (k, v) in pairs {
            h.set(k, v);
        }
        h
    }

    /// Set one hint. Known keys parse through their [`HintSpec`]; unknown
    /// keys only land in `raw` (counted into `mpiio.hints.unknown` at
    /// open, where a metrics context exists).
    pub fn set(&mut self, key: &str, value: &str) {
        self.raw.insert(key.to_string(), value.to_string());
        if let Some(spec) = hint_spec(key) {
            if let Some(v) = spec.kind.parse(value) {
                (spec.set)(self, v);
            }
        }
    }

    /// The typed current value of a known hint key.
    pub fn get(&self, key: &str) -> Option<HintValue> {
        hint_spec(key).map(|spec| (spec.get)(self))
    }

    /// Raw keys that match no [`HintSpec`] — inert hints the application
    /// supplied. Surfaced as `mpiio.hints.unknown` warnings at open.
    pub fn unknown_keys(&self) -> impl Iterator<Item = &str> {
        self.raw
            .keys()
            .map(String::as_str)
            .filter(|k| hint_spec(k).is_none())
    }

    /// Effective number of aggregators for a `size`-rank communicator.
    pub fn aggregators(&self, size: usize) -> usize {
        if self.cb_nodes == 0 {
            size
        } else {
            self.cb_nodes.min(size).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let h = Hints::default();
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.aggregators(8), 8);
        assert_eq!(h.cb_read, TriState::Automatic);
    }

    #[test]
    fn parse_known_keys() {
        let h = Hints::from_pairs([
            ("cb_nodes", "2"),
            ("cb_buffer_size", "1048576"),
            ("romio_cb_write", "disable"),
            ("romio_ds_read", "enable"),
            ("striping_unit", "65536"), // parsed by the DAFS driver, kept in raw
        ]);
        assert_eq!(h.cb_nodes, 2);
        assert_eq!(h.aggregators(8), 2);
        assert_eq!(h.cb_buffer_size, 1 << 20);
        assert_eq!(h.cb_write, TriState::Disable);
        assert_eq!(h.ds_read, TriState::Enable);
        assert_eq!(h.striping_unit, 65536);
        assert_eq!(h.raw["striping_unit"], "65536");
    }

    #[test]
    fn striping_hints_parse_and_clamp() {
        let h = Hints::default();
        assert_eq!(h.striping_factor, 0);
        assert_eq!(h.striping_unit, 0);
        let h = Hints::from_pairs([("striping_factor", "4"), ("striping_unit", "131072")]);
        assert_eq!(h.striping_factor, 4);
        assert_eq!(h.striping_unit, 128 << 10);
        // Tiny units clamp to the 4 KiB floor; zero and garbage keep the
        // driver default.
        let h = Hints::from_pairs([("striping_unit", "16")]);
        assert_eq!(h.striping_unit, 4096);
        let h = Hints::from_pairs([("striping_unit", "0"), ("striping_factor", "lots")]);
        assert_eq!(h.striping_unit, 0);
        assert_eq!(h.striping_factor, 0);
    }

    #[test]
    fn bad_values_fall_back() {
        let h = Hints::from_pairs([("cb_buffer_size", "banana"), ("romio_cb_read", "maybe")]);
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.cb_read, TriState::Automatic);
    }

    #[test]
    fn aggregator_clamping() {
        let mut h = Hints::default();
        h.set("cb_nodes", "100");
        assert_eq!(h.aggregators(4), 4);
        h.set("cb_nodes", "0");
        assert_eq!(h.aggregators(4), 4);
    }

    #[test]
    fn tiny_buffers_clamped() {
        let mut h = Hints::default();
        h.set("cb_buffer_size", "1");
        assert_eq!(h.cb_buffer_size, 4096);
    }

    #[test]
    fn sieving_buffer_sizes_parse_and_clamp() {
        let h = Hints::from_pairs([
            ("ind_rd_buffer_size", "65536"),
            ("ind_wr_buffer_size", "131072"),
        ]);
        assert_eq!(h.ind_rd_buffer_size, 64 << 10);
        assert_eq!(h.ind_wr_buffer_size, 128 << 10);
        // Below the 4 KiB floor: clamped, not taken literally.
        let h = Hints::from_pairs([("ind_rd_buffer_size", "16"), ("ind_wr_buffer_size", "0")]);
        assert_eq!(h.ind_rd_buffer_size, 4096);
        assert_eq!(h.ind_wr_buffer_size, 4096);
    }

    #[test]
    fn sieving_buffer_garbage_keeps_defaults() {
        let h = Hints::from_pairs([
            ("ind_rd_buffer_size", "lots"),
            ("ind_wr_buffer_size", "-4096"),
        ]);
        assert_eq!(h.ind_rd_buffer_size, 4 << 20);
        assert_eq!(h.ind_wr_buffer_size, 512 << 10);
    }

    #[test]
    fn ds_toggles_parse_all_spellings() {
        let h = Hints::from_pairs([("romio_ds_read", "false"), ("romio_ds_write", "true")]);
        assert_eq!(h.ds_read, TriState::Disable);
        assert_eq!(h.ds_write, TriState::Enable);
        let h = Hints::from_pairs([("romio_ds_write", "automatic")]);
        assert_eq!(h.ds_write, TriState::Automatic);
    }

    #[test]
    fn cb_pipeline_toggle() {
        assert_eq!(Hints::default().cb_pipeline, TriState::Automatic);
        let h = Hints::from_pairs([("romio_cb_pipeline", "disable")]);
        assert_eq!(h.cb_pipeline, TriState::Disable);
        let h = Hints::from_pairs([("romio_cb_pipeline", "enable")]);
        assert_eq!(h.cb_pipeline, TriState::Enable);
    }

    #[test]
    fn cb_cache_toggle() {
        // Off by default, strictly opt-in — like dafs_cache.
        assert_eq!(Hints::default().cb_cache, TriState::Automatic);
        let h = Hints::from_pairs([("romio_cb_cache", "enable")]);
        assert_eq!(h.cb_cache, TriState::Enable);
        let h = Hints::from_pairs([("romio_cb_cache", "disable")]);
        assert_eq!(h.cb_cache, TriState::Disable);
        let h = Hints::from_pairs([("romio_cb_cache", "sometimes")]);
        assert_eq!(h.cb_cache, TriState::Automatic);
    }

    #[test]
    fn dafs_listio_toggle() {
        assert_eq!(Hints::default().dafs_listio, TriState::Automatic);
        let h = Hints::from_pairs([("dafs_listio", "disable")]);
        assert_eq!(h.dafs_listio, TriState::Disable);
        let h = Hints::from_pairs([("dafs_listio", "enable")]);
        assert_eq!(h.dafs_listio, TriState::Enable);
        let h = Hints::from_pairs([("dafs_listio", "sometimes")]);
        assert_eq!(h.dafs_listio, TriState::Automatic);
    }

    #[test]
    fn dafs_cache_toggle() {
        assert_eq!(Hints::default().dafs_cache, TriState::Automatic);
        let h = Hints::from_pairs([("dafs_cache", "enable")]);
        assert_eq!(h.dafs_cache, TriState::Enable);
        let h = Hints::from_pairs([("dafs_cache", "disable")]);
        assert_eq!(h.dafs_cache, TriState::Disable);
        let h = Hints::from_pairs([("dafs_cache", "sometimes")]);
        assert_eq!(h.dafs_cache, TriState::Automatic);
    }

    #[test]
    fn dafs_qos_toggle_and_weight() {
        // Off by default, strictly opt-in — like dafs_cache.
        assert_eq!(Hints::default().dafs_qos, TriState::Automatic);
        assert_eq!(Hints::default().dafs_tenant_weight, 1);
        let h = Hints::from_pairs([("dafs_qos", "enable"), ("dafs_tenant_weight", "8")]);
        assert_eq!(h.dafs_qos, TriState::Enable);
        assert_eq!(h.dafs_tenant_weight, 8);
        // Weight 0 clamps to 1 (a zero-weight tenant would starve itself).
        let h = Hints::from_pairs([("dafs_tenant_weight", "0")]);
        assert_eq!(h.dafs_tenant_weight, 1);
        let h = Hints::from_pairs([("dafs_qos", "sometimes")]);
        assert_eq!(h.dafs_qos, TriState::Automatic);
    }

    #[test]
    fn raw_preserves_known_and_unknown_keys_verbatim() {
        let h = Hints::from_pairs([
            ("ind_wr_buffer_size", "16"), // clamped in the parsed field...
            ("romio_ds_read", "maybe"),   // ...fell back to Automatic...
            ("mystery_knob", "7"),        // ...inert
        ]);
        // ...but raw always records what the application actually said.
        assert_eq!(h.raw["ind_wr_buffer_size"], "16");
        assert_eq!(h.raw["romio_ds_read"], "maybe");
        assert_eq!(h.raw["mystery_knob"], "7");
    }

    #[test]
    fn unknown_keys_are_detected() {
        let h = Hints::from_pairs([
            ("cb_nodes", "2"),
            ("mystery_knob", "7"),
            ("romio_no_such", "enable"),
        ]);
        let unknown: Vec<&str> = h.unknown_keys().collect();
        assert_eq!(unknown, vec!["mystery_knob", "romio_no_such"]);
    }

    /// Round-trip property: for every tri-state hint and every spelling,
    /// set → get → render → set again reproduces the same typed value
    /// through the one spec-table path.
    #[test]
    fn tri_hints_round_trip() {
        let tri_keys: Vec<&str> = HINT_SPECS
            .iter()
            .filter(|s| s.kind == HintKind::Tri)
            .map(|s| s.key)
            .collect();
        assert!(tri_keys.len() >= 7, "all tri-state hints must be specs");
        let spellings = [
            ("enable", TriState::Enable),
            ("true", TriState::Enable),
            ("disable", TriState::Disable),
            ("false", TriState::Disable),
            ("automatic", TriState::Automatic),
            ("garbage", TriState::Automatic),
        ];
        for key in &tri_keys {
            for (spelling, want) in &spellings {
                let mut h = Hints::default();
                h.set(key, spelling);
                let got = h.get(key).unwrap();
                assert_eq!(got, HintValue::Tri(*want), "{key}={spelling}");
                // Render and re-parse: the canonical spelling must map to
                // the same typed value.
                let rendered = got.to_hint_string();
                let mut h2 = Hints::default();
                h2.set(key, &rendered);
                assert_eq!(h2.get(key).unwrap(), got, "{key} round-trip");
            }
        }
    }

    /// Numeric hints round-trip through the same single path.
    #[test]
    fn numeric_hints_round_trip() {
        for spec in HINT_SPECS.iter().filter(|s| s.kind != HintKind::Tri) {
            let mut h = Hints::default();
            h.set(spec.key, "131072");
            let got = h.get(spec.key).unwrap();
            let rendered = got.to_hint_string();
            let mut h2 = Hints::default();
            h2.set(spec.key, &rendered);
            assert_eq!(h2.get(spec.key).unwrap(), got, "{} round-trip", spec.key);
        }
    }

    /// The uniform env-override helper: every `MPIO_DAFS_*` variable in
    /// [`TRI_ENV_OVERRIDES`] contributes the same tri-state mapping, and
    /// every tri-state spelling flows through [`TriState::parse`].
    #[test]
    fn env_override_mapping() {
        assert_eq!(tri_env_value(None), TriState::Automatic);
        assert_eq!(tri_env_value(Some("enable")), TriState::Enable);
        assert_eq!(tri_env_value(Some("true")), TriState::Enable);
        assert_eq!(tri_env_value(Some("disable")), TriState::Disable);
        assert_eq!(tri_env_value(Some("false")), TriState::Disable);
        assert_eq!(tri_env_value(Some("whatever")), TriState::Automatic);
        // Every override entry names a known tri-state hint and a
        // variable in the project env namespace (`MPIO_DAFS_*` for the
        // DAFS-backend hints, `MPIO_ROMIO_*` for the ROMIO-level ones).
        for (key, var) in TRI_ENV_OVERRIDES {
            let spec = hint_spec(key).expect("override key must be a spec");
            assert_eq!(spec.kind, HintKind::Tri, "{key}");
            assert!(
                var.starts_with("MPIO_DAFS_") || var.starts_with("MPIO_ROMIO_"),
                "{var}"
            );
        }
    }
}
