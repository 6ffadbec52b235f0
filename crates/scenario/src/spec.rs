//! The typed scenario: turning a parsed [`Table`] into a validated
//! [`Scenario`].
//!
//! Every section is read through a [`Sect`] wrapper that records which
//! keys were consumed, so a typo'd or unsupported key fails loudly with
//! its line/column instead of being silently ignored — the failure mode
//! that makes config languages untrustworthy.

use rogue_core::experiments::e10_evasion::{E10EvasionParams, EvasionVariant};
use rogue_core::experiments::e10_wids::{E10Params, WidsScenario};
use rogue_core::experiments::e1_association::E1Params;
use rogue_core::scenario::{CorpScenarioCfg, RogueCfg};
use rogue_crypto::wep::WepKey;
use rogue_dot11::MacAddr;
use rogue_netstack::Ipv4Addr;
use rogue_phy::{MediumParams, Pos};
use rogue_sim::{Seed, SimDuration, SimTime};

use crate::toml::{Error, Item, Span, Table, Value};

/// A validated scenario, ready for [`crate::compile`] or the E-series
/// report drivers.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (reports echo it).
    pub name: String,
    /// Master seed; every replication and walker forks from it.
    pub seed: Seed,
    /// Wall-clock horizon of a summary run.
    pub duration: SimDuration,
    /// Mobility/traffic tick of a summary run.
    pub tick: SimDuration,
    /// Radio propagation parameters.
    pub medium: MediumParams,
    /// Base corporate configuration for the E1/E10 report kinds.
    pub corp: Option<CorpScenarioCfg>,
    /// E1 driver parameters (report kind `e1`).
    pub e1: Option<E1Params>,
    /// E10 driver parameters (report kind `e10`).
    pub e10: Option<E10Params>,
    /// E10-evasion driver parameters (report kind `e10-evasion`).
    pub e10_evasion: Option<E10EvasionParams>,
    /// Infrastructure APs.
    pub aps: Vec<ApSpec>,
    /// Wired servers.
    pub servers: Vec<ServerSpec>,
    /// Client population templates.
    pub populations: Vec<PopulationSpec>,
    /// Rogue APs with placement and activation timing.
    pub rogues: Vec<RogueSpec>,
    /// WIDS deployment for summary runs.
    pub wids: Option<WidsSpec>,
    /// What to print at the end.
    pub report: ReportSpec,
}

/// Which report the run produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportKind {
    /// Generic key/value summary of the compiled run.
    Summary,
    /// The E1 association-capture tables (requires `[corp]`/`[e1]`).
    E1,
    /// The E10 WIDS score card (requires `[corp]`/`[e10]`).
    E10,
    /// The E10-evasion score card (`[corp]`/`[e10_evasion]`).
    E10Evasion,
}

/// The `[report]` section.
#[derive(Clone, Debug)]
pub struct ReportSpec {
    /// Report flavour.
    pub kind: ReportKind,
    /// Replications per cell (E-series kinds).
    pub reps: usize,
}

/// One `[[ap]]`.
#[derive(Clone, Debug)]
pub struct ApSpec {
    /// Network name.
    pub ssid: String,
    /// BSSID.
    pub bssid: MacAddr,
    /// Operating channel.
    pub channel: u8,
    /// Position.
    pub pos: Pos,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// WEP passphrase (40-bit key schedule), if the network is closed.
    pub wep: Option<String>,
}

impl ApSpec {
    /// The AP's WEP key, if any.
    pub fn wep_key(&self) -> Option<WepKey> {
        self.wep.as_deref().map(WepKey::from_passphrase_40)
    }
}

/// One `[[server]]`.
#[derive(Clone, Debug)]
pub struct ServerSpec {
    /// Name traffic entries reference.
    pub name: String,
    /// Address on the LAN.
    pub ip: Ipv4Addr,
    /// What it serves.
    pub content: ServerContent,
}

/// What a server hosts.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerContent {
    /// The §5.1 news page (plus a UDP sink on port 5000).
    News,
    /// A download portal serving a `file_len`-byte binary.
    Download {
        /// Size of the served file.
        file_len: usize,
    },
}

/// One `[[population]]`: a template the generator expands into
/// `count` concrete clients.
#[derive(Clone, Debug)]
pub struct PopulationSpec {
    /// Template name (node names derive from it).
    pub name: String,
    /// Clients to generate.
    pub count: usize,
    /// Network the clients join.
    pub ssid: String,
    /// WEP passphrase matching the AP's, if closed.
    pub wep: Option<String>,
    /// Spawn/roam area `[x0, y0, x1, y1]`.
    pub area: [f64; 4],
    /// First MAC suffix; client *i* gets `MacAddr::local(mac_first + i)`.
    pub mac_first: u64,
    /// First IP; client *i* gets `ip_first + i`.
    pub ip_first: Ipv4Addr,
    /// How the clients move.
    pub mobility: MobilitySpec,
    /// Traffic each client may run.
    pub traffic: Vec<TrafficSpec>,
}

/// The `[population.mobility]` section.
#[derive(Clone, Debug, PartialEq)]
pub enum MobilitySpec {
    /// Clients stay where they spawned.
    Static,
    /// Random waypoint inside the population area.
    Waypoint {
        /// Uniform speed range, m/s.
        speed_mps: (f64, f64),
        /// Pause at each waypoint.
        pause: SimDuration,
    },
}

/// One `[[population.traffic]]` entry.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Server (by `[[server]]` name) the flow targets.
    pub server: String,
    /// Fraction of the population running this flow (0..=1).
    pub share: f64,
    /// When the flow starts.
    pub start: SimTime,
    /// Flow details.
    pub flow: FlowSpec,
}

/// Per-kind traffic parameters.
#[derive(Clone, Debug)]
pub enum FlowSpec {
    /// Periodic page fetch loop (diurnal browsing).
    Http {
        /// Path fetched.
        path: String,
        /// Fetch period.
        period: SimDuration,
    },
    /// One-shot download of the portal page + file.
    Download,
    /// Constant-bit-rate UDP stream to the server's sink.
    Udp {
        /// Datagrams per second at scale 1.0.
        rate_pps: u64,
        /// Datagram payload bytes (≥ 16).
        payload: usize,
        /// Diurnal profile: `(from, scale)` windows; the stream runs at
        /// `rate_pps * scale` from each instant to the next (a scale of
        /// 0 silences the window). Empty = flat 1.0 for the whole run.
        profile: Vec<(SimTime, f64)>,
    },
    /// Periodic ICMP echo.
    Ping {
        /// Echo period.
        period: SimDuration,
    },
}

/// One `[[rogue]]`.
#[derive(Clone, Debug)]
pub struct RogueSpec {
    /// SSID of the `[[ap]]` this rogue clones (BSSID/SSID/WEP copied).
    pub clone_of: String,
    /// The rogue's own channel.
    pub channel: u8,
    /// Where it sits.
    pub pos: Pos,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Activation time.
    pub start: SimTime,
    /// Run a forged-deauth flood off the cloned BSSID.
    pub deauth: bool,
    /// Deauth a specific client (None = broadcast).
    pub deauth_target: Option<MacAddr>,
}

/// The `[wids]` section (summary runs).
#[derive(Clone, Debug)]
pub struct WidsSpec {
    /// Monitor channels.
    pub channels: Vec<u8>,
    /// Monitor position.
    pub pos: Pos,
}

// ---------------------------------------------------------------------
// section reader

/// A table wrapper that tracks consumed keys and rejects leftovers.
struct Sect<'a> {
    table: &'a Table,
    used: Vec<bool>,
    what: &'a str,
}

impl<'a> Sect<'a> {
    fn new(table: &'a Table, what: &'a str) -> Sect<'a> {
        Sect {
            table,
            used: vec![false; table.entries.len()],
            what,
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Item> {
        for (i, (k, v)) in self.table.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn require(&mut self, key: &str) -> Result<&'a Item, Error> {
        let span = self.table.span;
        let what = self.what;
        self.take(key)
            .ok_or_else(|| Error::at(span, format!("{what}: missing required key `{key}`")))
    }

    /// Error on the first key nobody consumed.
    fn finish(self) -> Result<(), Error> {
        for (i, (k, v)) in self.table.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(Error::at(
                    v.span,
                    format!("{}: unknown key `{k}`", self.what),
                ));
            }
        }
        Ok(())
    }
}

// typed readers -------------------------------------------------------

fn as_str(item: &Item) -> Result<&str, Error> {
    match &item.value {
        Value::Str(s) => Ok(s),
        other => Err(Error::at(
            item.span,
            format!("expected a string, got {}", other.type_name()),
        )),
    }
}

fn as_i64(item: &Item) -> Result<i64, Error> {
    match item.value {
        Value::Int(i) => Ok(i),
        ref other => Err(Error::at(
            item.span,
            format!("expected an integer, got {}", other.type_name()),
        )),
    }
}

fn as_usize(item: &Item) -> Result<usize, Error> {
    let i = as_i64(item)?;
    usize::try_from(i).map_err(|_| Error::at(item.span, format!("{i} must be non-negative")))
}

fn as_u64(item: &Item) -> Result<u64, Error> {
    let i = as_i64(item)?;
    u64::try_from(i).map_err(|_| Error::at(item.span, format!("{i} must be non-negative")))
}

/// Any number, `inf` and `nan` included: the reader behind the checked
/// [`as_f64`] and the key-specific checks that name their key.
fn as_number(item: &Item) -> Result<f64, Error> {
    match item.value {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        ref other => Err(Error::at(
            item.span,
            format!("expected a number, got {}", other.type_name()),
        )),
    }
}

/// A finite number. No key means anything at `inf` or `nan`.
fn as_f64(item: &Item) -> Result<f64, Error> {
    let f = as_number(item)?;
    if !f.is_finite() {
        return Err(Error::at(
            item.span,
            format!("expected a finite number, got {f}"),
        ));
    }
    Ok(f)
}

/// A shadowing standard deviation: finite and non-negative (σ = 0
/// disables shadowing).
fn as_sigma_db(item: &Item) -> Result<f64, Error> {
    let sigma = as_number(item)?;
    if !(sigma.is_finite() && sigma >= 0.0) {
        return Err(Error::at(
            item.span,
            format!("shadowing_sigma_db must be a finite number >= 0, got {sigma}"),
        ));
    }
    Ok(sigma)
}

fn as_bool(item: &Item) -> Result<bool, Error> {
    match item.value {
        Value::Bool(b) => Ok(b),
        ref other => Err(Error::at(
            item.span,
            format!("expected a boolean, got {}", other.type_name()),
        )),
    }
}

fn as_table<'a>(item: &'a Item, what: &str) -> Result<&'a Table, Error> {
    match &item.value {
        Value::Table(t) => Ok(t),
        other => Err(Error::at(
            item.span,
            format!("{what}: expected a table, got {}", other.type_name()),
        )),
    }
}

fn as_array(item: &Item) -> Result<&[Item], Error> {
    match &item.value {
        Value::Array(items) => Ok(items),
        other => Err(Error::at(
            item.span,
            format!("expected an array, got {}", other.type_name()),
        )),
    }
}

fn as_duration(item: &Item) -> Result<SimDuration, Error> {
    let s = as_str(item)?;
    s.parse::<SimDuration>()
        .map_err(|e| Error::at(item.span, e.to_string()))
}

fn as_time(item: &Item) -> Result<SimTime, Error> {
    Ok(SimTime::ZERO + as_duration(item)?)
}

fn as_mac(item: &Item) -> Result<MacAddr, Error> {
    let s = as_str(item)?;
    s.parse::<MacAddr>()
        .map_err(|_| Error::at(item.span, format!("invalid MAC address `{s}`")))
}

fn as_ip(item: &Item) -> Result<Ipv4Addr, Error> {
    let s = as_str(item)?;
    s.parse::<Ipv4Addr>()
        .map_err(|_| Error::at(item.span, format!("invalid IPv4 address `{s}`")))
}

fn as_channel(item: &Item) -> Result<u8, Error> {
    let i = as_i64(item)?;
    if !(1..=14).contains(&i) {
        return Err(Error::at(
            item.span,
            format!("channel {i} out of range (802.11b uses 1..=14)"),
        ));
    }
    Ok(i as u8)
}

/// Largest accepted coordinate magnitude, metres (1,000 km). It keeps
/// the medium's `i32` grid-cell keys exact; real floors and cities span
/// a few kilometres.
const MAX_COORD_M: f64 = 1.0e6;

/// A position `[x, y]` under `key`: both coordinates finite and within
/// [`MAX_COORD_M`] of the origin on each axis.
fn as_pos(item: &Item, key: &str) -> Result<Pos, Error> {
    let items = as_array(item)?;
    if items.len() != 2 {
        return Err(Error::at(
            item.span,
            format!("{key}: position must be `[x, y]`"),
        ));
    }
    let (x, y) = (as_number(&items[0])?, as_number(&items[1])?);
    let ok = |c: f64| c.is_finite() && c.abs() <= MAX_COORD_M;
    if !(ok(x) && ok(y)) {
        return Err(Error::at(
            item.span,
            format!("{key} must be finite with |x| and |y| at most 1000 km, got [{x}, {y}]"),
        ));
    }
    Ok(Pos::new(x, y))
}

fn as_f64_vec(item: &Item) -> Result<Vec<f64>, Error> {
    as_array(item)?.iter().map(as_f64).collect()
}

fn as_channel_vec(item: &Item) -> Result<Vec<u8>, Error> {
    as_array(item)?.iter().map(as_channel).collect()
}

/// Array of tables under `key` (absent = empty).
fn tables_of<'a>(sect: &mut Sect<'a>, key: &str, what: &str) -> Result<Vec<&'a Table>, Error> {
    let Some(item) = sect.take(key) else {
        return Ok(Vec::new());
    };
    match &item.value {
        Value::Array(items) => items.iter().map(|i| as_table(i, what)).collect(),
        Value::Table(t) => Ok(vec![t]),
        other => Err(Error::at(
            item.span,
            format!(
                "{what}: expected `[[{key}]]` tables, got {}",
                other.type_name()
            ),
        )),
    }
}

// ---------------------------------------------------------------------
// scenario assembly

/// Most ticks a summary run may take over its duration. Far more than
/// any real scenario needs (`campus_waypoint_500` takes 160), and it
/// keeps a typo such as `tick = "1ns"` from becoming an unbounded run.
const MAX_TICKS: u64 = 1_000_000;

/// Validate a parsed root table into a [`Scenario`].
pub fn from_table(root: &Table) -> Result<Scenario, Error> {
    let mut top = Sect::new(root, "scenario");

    let name = as_str(top.require("name")?)?.to_string();
    let seed = Seed(top.take("seed").map(as_u64).transpose()?.unwrap_or(1));
    let duration_item = top.take("duration");
    let duration = duration_item
        .map(as_duration)
        .transpose()?
        .unwrap_or(SimDuration::from_secs(30));
    let tick_item = top.take("tick");
    let tick = tick_item
        .map(as_duration)
        .transpose()?
        .unwrap_or(SimDuration::from_millis(100));
    // Blame the tick if it was given, else the duration it divides.
    let tick_span = tick_item.or(duration_item).map_or(root.span, |i| i.span);
    if tick == SimDuration::ZERO {
        return Err(Error::at(tick_span, "tick must be positive"));
    }
    let ticks = duration.as_nanos().div_ceil(tick.as_nanos());
    if ticks > MAX_TICKS {
        return Err(Error::at(
            tick_span,
            format!(
                "tick {tick} gives {ticks} ticks over duration {duration}; \
                 at most {MAX_TICKS} are allowed"
            ),
        ));
    }

    let medium = match top.take("medium") {
        None => MediumParams::default(),
        Some(item) => read_medium(as_table(item, "[medium]")?)?,
    };

    let corp = match top.take("corp") {
        None => None,
        Some(item) => Some(read_corp(as_table(item, "[corp]")?)?),
    };
    let e1 = match top.take("e1") {
        None => None,
        Some(item) => Some(read_e1(as_table(item, "[e1]")?)?),
    };
    let e10 = match top.take("e10") {
        None => None,
        Some(item) => Some(read_e10(as_table(item, "[e10]")?)?),
    };
    let e10_evasion = match top.take("e10_evasion") {
        None => None,
        Some(item) => Some(read_e10_evasion(as_table(item, "[e10_evasion]")?)?),
    };

    let aps = tables_of(&mut top, "ap", "[[ap]]")?
        .into_iter()
        .map(read_ap)
        .collect::<Result<Vec<_>, _>>()?;
    let servers = tables_of(&mut top, "server", "[[server]]")?
        .into_iter()
        .map(read_server)
        .collect::<Result<Vec<_>, _>>()?;
    let populations = tables_of(&mut top, "population", "[[population]]")?
        .into_iter()
        .map(read_population)
        .collect::<Result<Vec<_>, _>>()?;
    let rogues = tables_of(&mut top, "rogue", "[[rogue]]")?
        .into_iter()
        .map(read_rogue)
        .collect::<Result<Vec<_>, _>>()?;
    let wids = match top.take("wids") {
        None => None,
        Some(item) => Some(read_wids(as_table(item, "[wids]")?)?),
    };

    let report = match top.take("report") {
        None => ReportSpec {
            kind: ReportKind::Summary,
            reps: 1,
        },
        Some(item) => read_report(as_table(item, "[report]")?)?,
    };

    top.finish()?;

    let sc = Scenario {
        name,
        seed,
        duration,
        tick,
        medium,
        corp,
        e1,
        e10,
        e10_evasion,
        aps,
        servers,
        populations,
        rogues,
        wids,
        report,
    };
    cross_validate(&sc, root.span)?;
    Ok(sc)
}

/// Checks that need the whole scenario: dangling references, kind
/// prerequisites.
fn cross_validate(sc: &Scenario, span: Span) -> Result<(), Error> {
    match sc.report.kind {
        ReportKind::Summary => {
            if sc.populations.is_empty() && sc.rogues.is_empty() {
                return Err(Error::at(
                    span,
                    "summary scenario has no populations and no rogues: nothing to run",
                ));
            }
            if !sc.populations.is_empty() && sc.aps.is_empty() {
                return Err(Error::at(span, "populations need at least one [[ap]]"));
            }
        }
        ReportKind::E1 | ReportKind::E10 | ReportKind::E10Evasion => {}
    }
    for p in &sc.populations {
        if !sc.aps.iter().any(|ap| ap.ssid == p.ssid) {
            return Err(Error::at(
                span,
                format!(
                    "population `{}` joins ssid `{}` but no [[ap]] advertises it",
                    p.name, p.ssid
                ),
            ));
        }
        for t in &p.traffic {
            if !sc.servers.iter().any(|s| s.name == t.server) {
                return Err(Error::at(
                    span,
                    format!(
                        "population `{}` sends traffic to server `{}` but no [[server]] has that name",
                        p.name, t.server
                    ),
                ));
            }
        }
    }
    for r in &sc.rogues {
        if !sc.aps.iter().any(|ap| ap.ssid == r.clone_of) {
            return Err(Error::at(
                span,
                format!(
                    "rogue clones ssid `{}` but no [[ap]] advertises it",
                    r.clone_of
                ),
            ));
        }
    }
    Ok(())
}

fn read_medium(t: &Table) -> Result<MediumParams, Error> {
    let mut s = Sect::new(t, "[medium]");
    let mut p = MediumParams::default();
    if let Some(i) = s.take("path_loss_exponent") {
        p.path_loss_exponent = as_f64(i)?;
    }
    if let Some(i) = s.take("ref_loss_db") {
        p.ref_loss_db = as_f64(i)?;
    }
    if let Some(i) = s.take("shadowing_sigma_db") {
        p.shadowing_sigma_db = as_sigma_db(i)?;
    }
    if let Some(i) = s.take("noise_floor_dbm") {
        p.noise_floor_dbm = as_f64(i)?;
    }
    if let Some(i) = s.take("cca_threshold_dbm") {
        p.cca_threshold_dbm = as_f64(i)?;
    }
    s.finish()?;
    Ok(p)
}

fn read_corp(t: &Table) -> Result<CorpScenarioCfg, Error> {
    let mut s = Sect::new(t, "[corp]");
    let mut cfg = CorpScenarioCfg::paper_attack();
    if let Some(i) = s.take("wep") {
        cfg.wep = match &i.value {
            Value::Bool(false) => None,
            _ => Some(WepKey::from_passphrase_40(as_str(i)?)),
        };
    }
    if let Some(i) = s.take("mac_filter") {
        cfg.mac_filter = as_bool(i)?;
    }
    if let Some(i) = s.take("victim_pos") {
        cfg.victim_pos = as_pos(i, "victim_pos")?;
    }
    if let Some(i) = s.take("file_len") {
        cfg.file_len = as_usize(i)?;
    }
    if let Some(i) = s.take("victim_mss") {
        cfg.victim_mss = as_usize(i)?;
    }
    if let Some(i) = s.take("server_mss") {
        cfg.server_mss = as_usize(i)?;
    }
    if let Some(i) = s.take("page_pad") {
        cfg.page_pad = as_usize(i)?;
    }
    if let Some(i) = s.take("shadowing_sigma_db") {
        cfg.shadowing_sigma_db = as_sigma_db(i)?;
    }
    if let Some(i) = s.take("wired_monitor") {
        cfg.wired_monitor = as_bool(i)?;
    }
    cfg.rogue = match s.take("rogue") {
        None => cfg.rogue,
        Some(i) => Some(read_corp_rogue(as_table(i, "[corp.rogue]")?)?),
    };
    s.finish()?;
    Ok(cfg)
}

fn read_corp_rogue(t: &Table) -> Result<RogueCfg, Error> {
    let mut s = Sect::new(t, "[corp.rogue]");
    let mut r = RogueCfg::default();
    if let Some(i) = s.take("pos") {
        r.pos = as_pos(i, "pos")?;
    }
    if let Some(i) = s.take("tx_power_dbm") {
        r.tx_power_dbm = as_f64(i)?;
    }
    if let Some(i) = s.take("channel") {
        r.channel = as_channel(i)?;
    }
    if let Some(i) = s.take("deauth") {
        r.deauth_victim = as_bool(i)?;
    }
    if let Some(i) = s.take("start") {
        r.start_at = as_time(i)?;
    }
    s.finish()?;
    Ok(r)
}

fn read_e1(t: &Table) -> Result<E1Params, Error> {
    let mut s = Sect::new(t, "[e1]");
    let mut p = E1Params::default();
    if let Some(i) = s.take("powers_dbm") {
        p.powers_dbm = as_f64_vec(i)?;
    }
    if let Some(i) = s.take("sweep_shadowing_db") {
        p.sweep_shadowing_db = as_f64(i)?;
    }
    if let Some(i) = s.take("sweep_run") {
        p.sweep_run = as_time(i)?;
    }
    if let Some(i) = s.take("deauth_rogue_start") {
        p.deauth_rogue_start = as_time(i)?;
    }
    if let Some(i) = s.take("deauth_run") {
        p.deauth_run = as_time(i)?;
    }
    s.finish()?;
    Ok(p)
}

fn read_e10(t: &Table) -> Result<E10Params, Error> {
    let mut s = Sect::new(t, "[e10]");
    let mut p = E10Params::default();
    if let Some(i) = s.take("run_time") {
        p.run_time = as_time(i)?;
    }
    if let Some(i) = s.take("attack_start") {
        p.attack_start = as_time(i)?;
    }
    if let Some(i) = s.take("spoof_start") {
        p.spoof_start = as_time(i)?;
    }
    if let Some(i) = s.take("slice") {
        p.slice = as_duration(i)?;
    }
    if let Some(i) = s.take("monitor_channels") {
        p.monitor_channels = as_channel_vec(i)?;
    }
    if let Some(i) = s.take("monitor_pos") {
        p.monitor_pos = as_pos(i, "monitor_pos")?;
    }
    if let Some(i) = s.take("match_window") {
        p.match_window = as_duration(i)?;
    }
    if let Some(i) = s.take("scenarios") {
        p.scenarios = as_array(i)?
            .iter()
            .map(|item| {
                let name = as_str(item)?;
                WidsScenario::from_name(name).ok_or_else(|| {
                    Error::at(
                        item.span,
                        format!(
                            "unknown WIDS scenario `{name}` (expected clean, \
                             rogue-ap+deauth or arp-spoof)"
                        ),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    s.finish()?;
    Ok(p)
}

fn read_e10_evasion(t: &Table) -> Result<E10EvasionParams, Error> {
    let mut s = Sect::new(t, "[e10_evasion]");
    let mut p = E10EvasionParams::default();
    if let Some(i) = s.take("run_time") {
        p.run_time = as_time(i)?;
    }
    if let Some(i) = s.take("attack_start") {
        p.attack_start = as_time(i)?;
    }
    if let Some(i) = s.take("slice") {
        p.slice = as_duration(i)?;
    }
    if let Some(i) = s.take("monitor_channels") {
        p.monitor_channels = as_channel_vec(i)?;
    }
    if let Some(i) = s.take("monitor_pos") {
        p.monitor_pos = as_pos(i, "monitor_pos")?;
    }
    if let Some(i) = s.take("match_window") {
        p.match_window = as_duration(i)?;
    }
    if let Some(i) = s.take("variants") {
        p.variants = as_array(i)?
            .iter()
            .map(|item| {
                let name = as_str(item)?;
                EvasionVariant::from_name(name).ok_or_else(|| {
                    Error::at(
                        item.span,
                        format!(
                            "unknown evasion variant `{name}` (expected mac-randomizing,                              karma-cloaked, low-power-stealth or pulsed-deauth)"
                        ),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if p.variants.is_empty() {
            return Err(Error::at(i.span, "variants must name at least one variant"));
        }
    }
    s.finish()?;
    Ok(p)
}

fn read_ap(t: &Table) -> Result<ApSpec, Error> {
    let mut s = Sect::new(t, "[[ap]]");
    let ap = ApSpec {
        ssid: as_str(s.require("ssid")?)?.to_string(),
        bssid: as_mac(s.require("bssid")?)?,
        channel: as_channel(s.require("channel")?)?,
        pos: as_pos(s.require("pos")?, "pos")?,
        tx_power_dbm: s
            .take("tx_power_dbm")
            .map(as_f64)
            .transpose()?
            .unwrap_or(15.0),
        wep: s
            .take("wep")
            .map(|i| as_str(i).map(String::from))
            .transpose()?,
    };
    s.finish()?;
    Ok(ap)
}

fn read_server(t: &Table) -> Result<ServerSpec, Error> {
    let mut s = Sect::new(t, "[[server]]");
    let name = as_str(s.require("name")?)?.to_string();
    let ip = as_ip(s.require("ip")?)?;
    let content_item = s.require("content")?;
    let content = match as_str(content_item)? {
        "news" => ServerContent::News,
        "download" => ServerContent::Download {
            file_len: s
                .take("file_len")
                .map(as_usize)
                .transpose()?
                .unwrap_or(32 * 1024),
        },
        other => {
            return Err(Error::at(
                content_item.span,
                format!("unknown content `{other}` (expected news or download)"),
            ))
        }
    };
    s.finish()?;
    Ok(ServerSpec { name, ip, content })
}

fn read_population(t: &Table) -> Result<PopulationSpec, Error> {
    let mut s = Sect::new(t, "[[population]]");
    let name = as_str(s.require("name")?)?.to_string();
    let count_item = s.require("count")?;
    let count = as_usize(count_item)?;
    if count == 0 {
        return Err(Error::at(count_item.span, "count must be at least 1"));
    }
    let ssid = as_str(s.require("ssid")?)?.to_string();
    let wep = s
        .take("wep")
        .map(|i| as_str(i).map(String::from))
        .transpose()?;
    let area_item = s.require("area")?;
    let raw = as_f64_vec(area_item)?;
    let area: [f64; 4] = raw
        .try_into()
        .map_err(|_| Error::at(area_item.span, "area must be `[x0, y0, x1, y1]`"))?;
    if area[2] <= area[0] || area[3] <= area[1] {
        return Err(Error::at(
            area_item.span,
            "area must satisfy x0 < x1 and y0 < y1",
        ));
    }
    if area.iter().any(|c| c.abs() > MAX_COORD_M) {
        return Err(Error::at(
            area_item.span,
            "area corners must lie within 1000 km of the origin on each axis",
        ));
    }
    let mac_first = s.take("mac_first").map(as_u64).transpose()?.unwrap_or(1000);
    let ip_first = match s.take("ip_first") {
        Some(i) => as_ip(i)?,
        None => Ipv4Addr::new(10, 0, 100, 1),
    };
    let mobility = match s.take("mobility") {
        None => MobilitySpec::Static,
        Some(i) => read_mobility(as_table(i, "[population.mobility]")?)?,
    };
    let traffic = tables_of(&mut s, "traffic", "[[population.traffic]]")?
        .into_iter()
        .map(read_traffic)
        .collect::<Result<Vec<_>, _>>()?;
    s.finish()?;
    Ok(PopulationSpec {
        name,
        count,
        ssid,
        wep,
        area,
        mac_first,
        ip_first,
        mobility,
        traffic,
    })
}

fn read_mobility(t: &Table) -> Result<MobilitySpec, Error> {
    let mut s = Sect::new(t, "[population.mobility]");
    let model_item = s.require("model")?;
    let spec = match as_str(model_item)? {
        "static" => MobilitySpec::Static,
        "waypoint" => {
            let speed_item = s.require("speed_mps")?;
            let speeds = as_f64_vec(speed_item)?;
            let speed_mps = match speeds.as_slice() {
                [lo, hi] if *lo > 0.0 && hi >= lo => (*lo, *hi),
                _ => {
                    return Err(Error::at(
                        speed_item.span,
                        "speed_mps must be `[lo, hi]` with 0 < lo <= hi",
                    ))
                }
            };
            MobilitySpec::Waypoint {
                speed_mps,
                pause: s
                    .take("pause")
                    .map(as_duration)
                    .transpose()?
                    .unwrap_or(SimDuration::from_secs(2)),
            }
        }
        other => {
            return Err(Error::at(
                model_item.span,
                format!("unknown mobility model `{other}` (expected static or waypoint)"),
            ))
        }
    };
    s.finish()?;
    Ok(spec)
}

fn read_traffic(t: &Table) -> Result<TrafficSpec, Error> {
    let mut s = Sect::new(t, "[[population.traffic]]");
    let kind_item = s.require("kind")?;
    let kind = as_str(kind_item)?.to_string();
    let server = as_str(s.require("server")?)?.to_string();
    let share_item = s.take("share");
    let share = share_item.map(as_f64).transpose()?.unwrap_or(1.0);
    if !(0.0..=1.0).contains(&share) {
        return Err(Error::at(
            share_item.expect("share was present").span,
            "share must be within 0..=1",
        ));
    }
    let start = s
        .take("start")
        .map(as_time)
        .transpose()?
        .unwrap_or(SimTime::from_secs(1));
    let flow = match kind.as_str() {
        "http" => FlowSpec::Http {
            path: s
                .take("path")
                .map(|i| as_str(i).map(String::from))
                .transpose()?
                .unwrap_or_else(|| "/index.html".to_string()),
            period: s
                .take("period")
                .map(as_duration)
                .transpose()?
                .unwrap_or(SimDuration::from_secs(5)),
        },
        "download" => FlowSpec::Download,
        "udp" => {
            let rate_item = s.require("rate_pps")?;
            let rate_pps = as_u64(rate_item)?;
            if rate_pps == 0 {
                return Err(Error::at(rate_item.span, "rate_pps must be positive"));
            }
            let payload = s.take("payload").map(as_usize).transpose()?.unwrap_or(64);
            if payload < 16 {
                return Err(Error::at(
                    t.span,
                    "udp payload must be at least 16 bytes (seq + timestamp)",
                ));
            }
            let profile = match s.take("profile") {
                None => Vec::new(),
                Some(item) => {
                    let mut windows = Vec::new();
                    for w in as_array(item)? {
                        let pair = as_array(w)?;
                        if pair.len() != 2 {
                            return Err(Error::at(
                                w.span,
                                "profile window must be `[\"from\", scale]`",
                            ));
                        }
                        let scale = as_f64(&pair[1])?;
                        if !(0.0..=100.0).contains(&scale) {
                            return Err(Error::at(pair[1].span, "profile scale out of range"));
                        }
                        windows.push((as_time(&pair[0])?, scale));
                    }
                    if windows.windows(2).any(|p| p[1].0 <= p[0].0) {
                        return Err(Error::at(
                            item.span,
                            "profile windows must have strictly increasing start times",
                        ));
                    }
                    windows
                }
            };
            FlowSpec::Udp {
                rate_pps,
                payload,
                profile,
            }
        }
        "ping" => FlowSpec::Ping {
            period: s
                .take("period")
                .map(as_duration)
                .transpose()?
                .unwrap_or(SimDuration::from_secs(1)),
        },
        other => {
            return Err(Error::at(
                kind_item.span,
                format!("unknown traffic kind `{other}` (expected http, download, udp or ping)"),
            ))
        }
    };
    s.finish()?;
    Ok(TrafficSpec {
        server,
        share,
        start,
        flow,
    })
}

fn read_rogue(t: &Table) -> Result<RogueSpec, Error> {
    let mut s = Sect::new(t, "[[rogue]]");
    let spec = RogueSpec {
        clone_of: as_str(s.require("clone_ap")?)?.to_string(),
        channel: as_channel(s.require("channel")?)?,
        pos: as_pos(s.require("pos")?, "pos")?,
        tx_power_dbm: s
            .take("tx_power_dbm")
            .map(as_f64)
            .transpose()?
            .unwrap_or(18.0),
        start: s
            .take("start")
            .map(as_time)
            .transpose()?
            .unwrap_or(SimTime::ZERO),
        deauth: s.take("deauth").map(as_bool).transpose()?.unwrap_or(false),
        deauth_target: s.take("deauth_target").map(as_mac).transpose()?,
    };
    s.finish()?;
    Ok(spec)
}

fn read_wids(t: &Table) -> Result<WidsSpec, Error> {
    let mut s = Sect::new(t, "[wids]");
    let spec = WidsSpec {
        channels: match s.take("channels") {
            None => vec![1, 6, 11],
            Some(i) => as_channel_vec(i)?,
        },
        pos: match s.take("pos") {
            None => Pos::new(0.0, 0.0),
            Some(i) => as_pos(i, "pos")?,
        },
    };
    s.finish()?;
    Ok(spec)
}

fn read_report(t: &Table) -> Result<ReportSpec, Error> {
    let mut s = Sect::new(t, "[report]");
    let kind = match s.take("kind") {
        None => ReportKind::Summary,
        Some(item) => match as_str(item)? {
            "summary" => ReportKind::Summary,
            "e1" => ReportKind::E1,
            "e10" => ReportKind::E10,
            "e10-evasion" => ReportKind::E10Evasion,
            other => {
                return Err(Error::at(
                    item.span,
                    format!(
                        "unknown report kind `{other}` (expected summary, e1, e10 or e10-evasion)"
                    ),
                ))
            }
        },
    };
    let reps_item = s.take("reps");
    let reps = reps_item.map(as_usize).transpose()?.unwrap_or(2);
    if reps == 0 {
        return Err(Error::at(
            reps_item.expect("reps was present").span,
            "reps must be at least 1",
        ));
    }
    s.finish()?;
    Ok(ReportSpec { kind, reps })
}

/// Parse + validate a scenario source string.
pub fn parse_scenario(src: &str) -> Result<Scenario, Error> {
    from_table(&crate::toml::parse(src)?)
}
