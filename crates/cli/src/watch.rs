//! The live fleet cockpit behind `aw-cli watch`.
//!
//! The fleet simulation runs on a background thread, streaming each
//! closed epoch over a bounded `sync_channel`; the foreground renders a
//! five-tab terminal UI from whatever has arrived so far. Because every
//! frame is a pure function of the streamed events — no wall-clock, no
//! terminal state — the `--headless` mode can print frames as plain
//! text and get byte-identical output for a fixed seed at any `--jobs`.

use std::sync::mpsc::{sync_channel, TryRecvError};
use std::thread;
use std::time::Duration;

use crate::tui::{
    shade, AnsiBackend, Block, Borders, Buffer, Color, Constraint, KeyReader, Layout, Paragraph,
    Rect, Row, Sparkline, Style, Table, Tabs, Widget,
};
use agilewatts::aw_cluster::{FleetConfig, FleetEpochEvent, FleetSim, ServerRole};
use agilewatts::aw_faults::FleetFaultKind;
use agilewatts::aw_server::DegradationStats;
use agilewatts::aw_types::Nanos;

use crate::args::{ParseError, RobustnessArgs, TelemetryArgs, WatchArgs};

/// The cockpit's tab set, in key order (`1`–`5`).
pub(crate) const TAB_TITLES: [&str; 5] = ["Power", "Latency", "Routing", "Events", "Opportunity"];

/// Headless frame geometry — fixed so frame dumps are comparable
/// across environments.
const HEADLESS_WIDTH: u16 = 80;
const HEADLESS_HEIGHT: u16 = 24;

/// Epochs the consumer may fall behind before the simulator blocks —
/// the backpressure bound of the cockpit channel.
const CHANNEL_CAPACITY: usize = 8;

/// One row of the Events-tab feed: fleet-wide rows (autoscaler, SLO)
/// have no server id; fault and counter rows carry one.
#[derive(Debug)]
struct FeedRow {
    epoch: usize,
    server: Option<usize>,
    what: String,
}

/// Everything the cockpit has learned from the stream so far. Frames
/// are rendered from this state alone.
#[derive(Debug)]
struct Cockpit {
    servers: usize,
    epochs_total: usize,
    slo_p99: Nanos,
    events: Vec<FleetEpochEvent>,
    feed: Vec<FeedRow>,
    finished: bool,
}

impl Cockpit {
    fn new(servers: usize, epochs_total: usize, slo_p99: Nanos) -> Self {
        Cockpit {
            servers,
            epochs_total,
            slo_p99,
            events: Vec::new(),
            feed: Vec::new(),
            finished: false,
        }
    }

    /// Ingests one epoch: derives feed rows, then stores the event.
    fn push(&mut self, event: FleetEpochEvent) {
        let e = event.window.epoch;
        // Fleet fault events first — they explain everything after them.
        for rec in &event.faults {
            let what = if rec.kind == FleetFaultKind::RackOutage {
                format!("{} (rack {})", rec.kind, rec.server)
            } else {
                rec.kind.to_string()
            };
            self.feed.push(FeedRow { epoch: e, server: Some(rec.server), what });
        }
        if event.window.parks > 0 || event.window.unparks > 0 {
            self.feed.push(FeedRow {
                epoch: e,
                server: None,
                what: format!(
                    "autoscaler: {} parked, {} unparked",
                    event.window.parks, event.window.unparks
                ),
            });
        }
        for s in &event.servers {
            if let Some(what) = counter_feed_line(&s.counters) {
                self.feed.push(FeedRow { epoch: e, server: Some(s.server), what });
            }
        }
        if event.window.slo_violated {
            self.feed.push(FeedRow {
                epoch: e,
                server: None,
                what: format!(
                    "SLO violated: fleet p99 {:.0} µs > {:.0} µs",
                    event.window.latency.p99.as_micros(),
                    self.slo_p99.as_micros()
                ),
            });
        }
        self.events.push(event);
    }
}

/// One feed cell for a server-epoch's fault/breaker counters, `None`
/// when the epoch was clean. Counters are per-epoch (each server-epoch
/// is an independent simulation), so no diffing is needed.
fn counter_feed_line(c: &DegradationStats) -> Option<String> {
    let parts: Vec<String> = c
        .counters()
        .into_iter()
        .filter(|&(_, _, _, count)| count > 0)
        .map(|(_, label, _, count)| format!("{count} {label}"))
        .collect();
    (!parts.is_empty()).then(|| parts.join(", "))
}

/// Renders one full frame: the tab bar plus the selected tab's body.
fn render(state: &Cockpit, tab: usize, area: Rect) -> Buffer {
    let mut buf = Buffer::empty(area);
    let chunks =
        Layout::default().constraints([Constraint::Length(1), Constraint::Min(0)]).split(area);
    Tabs::new(TAB_TITLES).select(tab).render(chunks[0], &mut buf);
    let status = format!(
        "epoch {}/{}{}",
        state.events.len(),
        state.epochs_total,
        if state.finished { " · done" } else { "" }
    );
    let x = area.right().saturating_sub(status.chars().count() as u16);
    buf.set_string(x, chunks[0].y, &status, Style::default().dim());
    match tab {
        0 => render_power(state, chunks[1], &mut buf),
        1 => render_latency(state, chunks[1], &mut buf),
        2 => render_routing(state, chunks[1], &mut buf),
        3 => render_events(state, chunks[1], &mut buf),
        _ => render_opportunity(state, chunks[1], &mut buf),
    }
    buf
}

/// Tab 1: fleet power sparkline over epochs, plus the per-server
/// C-state residency heatmap (one row per server, one column per
/// epoch).
fn render_power(state: &Cockpit, area: Rect, buf: &mut Buffer) {
    let chunks =
        Layout::default().constraints([Constraint::Length(7), Constraint::Min(0)]).split(area);
    let watts: Vec<f64> = state.events.iter().map(|e| e.window.fleet_power.as_watts()).collect();
    let cur = watts.last().copied().unwrap_or(0.0);
    let peak = watts.iter().copied().fold(0.0, f64::max);
    Sparkline::new(watts)
        .style(Style::default().fg(Color::Green))
        .block(
            Block::default()
                .borders(Borders::ALL)
                .title(format!(" Fleet power {cur:.1} W · peak {peak:.1} W ")),
        )
        .render(chunks[0], buf);

    let block = Block::default()
        .borders(Borders::ALL)
        .title(" Residency heatmap · shade agile · P parked · · idle · X crashed · E ejected ");
    let inner = block.inner(chunks[1]);
    block.render(chunks[1], buf);
    for srv in 0..state.servers {
        let y = inner.y + srv as u16;
        if y >= inner.bottom() {
            break;
        }
        buf.set_string(inner.x, y, &format!("s{srv:02} "), Style::default().dim());
        for (i, ev) in state.events.iter().enumerate() {
            let x = inner.x + 4 + i as u16;
            if x >= inner.right() {
                break;
            }
            let snap = &ev.servers[srv];
            let (glyph, style) = match snap.role {
                ServerRole::Parked => ('P', Style::default().fg(Color::Blue)),
                ServerRole::Idle => ('·', Style::default().dim()),
                ServerRole::Loaded => (shade(snap.agile_share), Style::default().fg(Color::Cyan)),
                ServerRole::Crashed => ('X', Style::default().fg(Color::Red)),
                ServerRole::Ejected => ('E', Style::default().fg(Color::Yellow)),
            };
            buf.set(x, y, glyph, style);
        }
    }
}

/// Tab 2: per-server p99 sparklines plus the fleet SLO burn summary.
fn render_latency(state: &Cockpit, area: Rect, buf: &mut Buffer) {
    let chunks =
        Layout::default().constraints([Constraint::Min(0), Constraint::Length(4)]).split(area);
    let block = Block::default().borders(Borders::ALL).title(" Per-server p99 (µs) ");
    let inner = block.inner(chunks[0]);
    block.render(chunks[0], buf);
    for srv in 0..state.servers {
        let y = inner.y + srv as u16;
        if y >= inner.bottom() {
            break;
        }
        let series: Vec<f64> = state
            .events
            .iter()
            .map(|e| e.servers[srv].p99.map_or(0.0, |p| p.as_micros()))
            .collect();
        let last = series.last().copied().unwrap_or(0.0);
        buf.set_string(inner.x, y, &format!("s{srv:02} {last:>7.1} "), Style::default());
        let spark = Rect::new(inner.x + 12, y, inner.width.saturating_sub(12), 1);
        Sparkline::new(series).style(Style::default().fg(Color::Yellow)).render(spark, buf);
    }

    let violated = state.events.iter().filter(|e| e.window.slo_violated).count();
    let burn =
        if state.events.is_empty() { 0.0 } else { violated as f64 / state.events.len() as f64 };
    let fleet_p99 = state.events.last().map_or(0.0, |e| e.window.latency.p99.as_micros());
    Paragraph::new([
        format!("fleet p99 {fleet_p99:.1} µs · target {:.1} µs", state.slo_p99.as_micros()),
        format!("burn rate {burn:.2} ({violated}/{} windows violated)", state.events.len()),
    ])
    .block(Block::default().borders(Borders::ALL).title(" SLO burn "))
    .render(chunks[1], buf);
}

/// Tab 3: the routing and autoscaler decision table, most recent
/// epochs last.
fn render_routing(state: &Cockpit, area: Rect, buf: &mut Buffer) {
    let block = Block::default().borders(Borders::ALL).title(" Routing & autoscaler decisions ");
    let visible = usize::from(block.inner(area).height).saturating_sub(1);
    let skip = state.events.len().saturating_sub(visible);
    let rows: Vec<Row> = state
        .events
        .iter()
        .skip(skip)
        .map(|e| {
            let w = &e.window;
            Row::new([
                format!("{}", w.epoch),
                format!("{:.0}", w.offered_qps),
                format!("{}", w.active),
                format!("{}", w.idle_active),
                format!("{}", w.parked),
                format!("{}/{}", w.parks, w.unparks),
                format!("{:.1}", w.fleet_power.as_watts()),
                format!("{:.1}", w.latency.p99.as_micros()),
                if w.slo_violated { "VIOL".to_string() } else { "ok".to_string() },
            ])
        })
        .collect();
    Table::new(
        rows,
        [
            Constraint::Length(5),
            Constraint::Length(8),
            Constraint::Length(6),
            Constraint::Length(4),
            Constraint::Length(6),
            Constraint::Length(7),
            Constraint::Length(8),
            Constraint::Length(8),
            Constraint::Length(4),
        ],
    )
    .header(
        Row::new([
            "epoch", "offered", "active", "idle", "parked", "park/un", "power W", "p99 µs", "SLO",
        ])
        .style(Style::default().bold()),
    )
    .block(block)
    .render(area, buf);
}

/// Tab 4: the scrolling fault / breaker / autoscaler feed — an
/// epoch/server/event table so fleet chaos reads per machine.
fn render_events(state: &Cockpit, area: Rect, buf: &mut Buffer) {
    let block = Block::default().borders(Borders::ALL).title(" Fault / breaker / autoscaler feed ");
    if state.feed.is_empty() {
        Paragraph::new(["(no events yet)".to_string()]).block(block).render(area, buf);
        return;
    }
    let visible = usize::from(block.inner(area).height).saturating_sub(1);
    let skip = state.feed.len().saturating_sub(visible);
    let rows: Vec<Row> = state
        .feed
        .iter()
        .skip(skip)
        .map(|r| {
            Row::new([
                format!("{}", r.epoch),
                r.server.map_or_else(|| "-".to_string(), |s| format!("s{s:02}")),
                r.what.clone(),
            ])
        })
        .collect();
    Table::new(rows, [Constraint::Length(5), Constraint::Length(6), Constraint::Length(64)])
        .header(Row::new(["epoch", "server", "event"]).style(Style::default().bold()))
        .block(block)
        .render(area, buf);
}

/// Tab 5: the fleet sleepable-idle sparkline plus the per-server
/// opportunity-recovery heatmap — achieved idle energy savings as a
/// share of the oracle-achievable savings (see `aw_sleep`).
fn render_opportunity(state: &Cockpit, area: Rect, buf: &mut Buffer) {
    let chunks =
        Layout::default().constraints([Constraint::Length(7), Constraint::Min(0)]).split(area);
    let shares: Vec<f64> = state
        .events
        .iter()
        .map(|e| {
            let sleepable: f64 =
                e.servers.iter().map(|s| s.opportunity.sleepable_time.as_micros()).sum();
            let idle: f64 = e.servers.iter().map(|s| s.opportunity.idle_time.as_micros()).sum();
            if idle > 0.0 {
                100.0 * sleepable / idle
            } else {
                0.0
            }
        })
        .collect();
    let cur = shares.last().copied().unwrap_or(0.0);
    let recovery = state.events.last().map_or(1.0, |e| e.window.recovery_ratio);
    Sparkline::new(shares)
        .style(Style::default().fg(Color::Magenta))
        .block(
            Block::default().borders(Borders::ALL).title(format!(
                " Sleepable idle {cur:.0}% · epoch recovery {:.0}% ",
                100.0 * recovery
            )),
        )
        .render(chunks[0], buf);

    let block = Block::default()
        .borders(Borders::ALL)
        .title(" Recovery heatmap · shade achieved/oracle · X crashed · E ejected ");
    let inner = block.inner(chunks[1]);
    block.render(chunks[1], buf);
    for srv in 0..state.servers {
        let y = inner.y + srv as u16;
        if y >= inner.bottom() {
            break;
        }
        buf.set_string(inner.x, y, &format!("s{srv:02} "), Style::default().dim());
        for (i, ev) in state.events.iter().enumerate() {
            let x = inner.x + 4 + i as u16;
            if x >= inner.right() {
                break;
            }
            let snap = &ev.servers[srv];
            let (glyph, style) = match snap.role {
                ServerRole::Parked => ('P', Style::default().fg(Color::Blue)),
                ServerRole::Idle => ('·', Style::default().dim()),
                ServerRole::Loaded => {
                    (shade(snap.opportunity.recovery()), Style::default().fg(Color::Magenta))
                }
                ServerRole::Crashed => ('X', Style::default().fg(Color::Red)),
                ServerRole::Ejected => ('E', Style::default().fg(Color::Yellow)),
            };
            buf.set(x, y, glyph, style);
        }
    }
}

/// One headless frame: all five tabs rendered at the fixed headless
/// geometry and concatenated.
fn headless_frame(state: &Cockpit) -> String {
    let area = Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT);
    (0..TAB_TITLES.len())
        .map(|tab| render(state, tab, area).to_plain_text())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the `watch` subcommand.
pub(crate) fn run_watch(
    args: &WatchArgs,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
    hw: Vec<&'static agilewatts::aw_server::HardwareModel>,
) -> Result<(), ParseError> {
    let config = crate::run::fleet_experiment(&args.fleet, telemetry, robustness, hw)
        .config(args.fleet.policy, args.fleet.config);
    if args.headless {
        run_headless(args, config);
        Ok(())
    } else {
        run_interactive(config)
    }
}

/// Headless mode: one plain-text frame per epoch (up to `--frames`),
/// then the final fleet report — all on stdout, byte-deterministic for
/// a fixed seed at any worker count.
fn run_headless(args: &WatchArgs, config: FleetConfig) {
    let frames = args.frames.unwrap_or(config.epochs);
    let mut state = Cockpit::new(config.servers, config.epochs, config.slo_p99);
    let (mut tx, rx) = sync_channel(CHANNEL_CAPACITY);
    // The stream ends when the thread returns and drops the sender.
    let handle = thread::spawn(move || FleetSim::new(config).run_observed(&mut tx));
    let mut emitted = 0usize;
    while let Ok(event) = rx.recv() {
        state.push(event);
        if emitted < frames {
            println!("=== frame {emitted} ===");
            println!("{}", headless_frame(&state));
            emitted += 1;
        }
    }
    state.finished = true;
    let report = handle.join().expect("fleet simulation thread panicked");
    println!("=== final ===");
    println!("{report}");
}

/// Interactive mode: take over the terminal, render ~10 frames/s, and
/// steer with `1`–`5`/`Tab` (tabs) and `q`/`Esc`/`Ctrl-C` (quit). The
/// final fleet report is printed after the terminal is restored.
fn run_interactive(config: FleetConfig) -> Result<(), ParseError> {
    let mut state = Cockpit::new(config.servers, config.epochs, config.slo_p99);
    let (mut tx, rx) = sync_channel(CHANNEL_CAPACITY);
    let handle = thread::spawn(move || FleetSim::new(config).run_observed(&mut tx));
    let mut backend = AnsiBackend::new((HEADLESS_WIDTH, HEADLESS_HEIGHT))
        .map_err(|e| ParseError(format!("cannot take over the terminal: {e}")))?;
    let keys = KeyReader::spawn();
    let mut tab = 0usize;
    'ui: loop {
        loop {
            match rx.try_recv() {
                Ok(event) => state.push(event),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    state.finished = true;
                    break;
                }
            }
        }
        let frame = render(&state, tab, backend.size());
        backend.present(&frame).map_err(|e| ParseError(format!("terminal write failed: {e}")))?;
        match keys.poll(Duration::from_millis(100)) {
            Some(b'q' | b'Q' | 0x1b | 0x03) => break 'ui,
            Some(b @ b'1'..=b'5') => tab = usize::from(b - b'1'),
            Some(b'\t') => tab = (tab + 1) % TAB_TITLES.len(),
            _ => {}
        }
    }
    // Dropping the receiver lets the simulator finish unobserved if the
    // user quit mid-run; dropping the backend restores the terminal
    // before the report prints.
    drop(rx);
    drop(backend);
    let report = handle.join().expect("fleet simulation thread panicked");
    println!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::FleetArgs;
    use agilewatts::aw_cluster::FleetObserver;

    fn tiny_args() -> WatchArgs {
        WatchArgs {
            fleet: FleetArgs {
                servers: 2,
                cores: 2,
                epochs: 3,
                epoch_ms: 5.0,
                autoscale: true,
                diurnal: Some(0.8),
                ..FleetArgs::default()
            },
            headless: true,
            frames: Some(2),
        }
    }

    /// Runs the tiny fleet inline (no threads) and feeds the cockpit.
    fn tiny_state() -> Cockpit {
        let args = tiny_args();
        let config = crate::run::fleet_experiment(
            &args.fleet,
            &TelemetryArgs::default(),
            &RobustnessArgs::default(),
            Vec::new(),
        )
        .config(args.fleet.policy, args.fleet.config);
        let mut state = Cockpit::new(config.servers, config.epochs, config.slo_p99);
        struct Into<'a>(&'a mut Cockpit);
        impl FleetObserver for Into<'_> {
            fn on_epoch(&mut self, event: &FleetEpochEvent) {
                self.0.push(event.clone());
            }
        }
        let mut observer = Into(&mut state);
        let _ = FleetSim::new(config).run_observed(&mut observer);
        state.finished = true;
        state
    }

    #[test]
    fn every_tab_renders_deterministically() {
        let a = tiny_state();
        let b = tiny_state();
        let area = Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT);
        for (tab, title) in TAB_TITLES.iter().enumerate() {
            let fa = render(&a, tab, area).to_plain_text();
            let fb = render(&b, tab, area).to_plain_text();
            assert_eq!(fa, fb, "tab {tab} frame diverged between identical runs");
            assert!(fa.contains(&format!("[{title}]")), "tab {tab} missing its selected title");
            assert!(fa.contains("epoch 3/3 · done"), "tab {tab} missing run status");
        }
    }

    #[test]
    fn power_tab_shows_sparkline_and_heatmap_rows() {
        let frame = render(&tiny_state(), 0, Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT))
            .to_plain_text();
        assert!(frame.contains("Fleet power"), "{frame}");
        assert!(frame.contains("Residency heatmap"), "{frame}");
        assert!(frame.contains("s00") && frame.contains("s01"), "{frame}");
        // Heatmap cells come only from the documented glyph set.
        let row = frame.lines().find(|l| l.contains("s00")).unwrap();
        let cells: String = row.chars().filter(|c| "P·░▒▓█ ".contains(*c)).collect();
        assert!(!cells.is_empty(), "{row}");
    }

    #[test]
    fn latency_tab_shows_per_server_p99_and_burn() {
        let frame = render(&tiny_state(), 1, Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT))
            .to_plain_text();
        assert!(frame.contains("Per-server p99"), "{frame}");
        assert!(frame.contains("burn rate"), "{frame}");
        assert!(frame.contains("target 500.0 µs"), "{frame}");
    }

    #[test]
    fn routing_tab_tabulates_every_epoch() {
        let frame = render(&tiny_state(), 2, Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT))
            .to_plain_text();
        assert!(frame.contains("Routing & autoscaler"), "{frame}");
        assert!(frame.contains("epoch offered"), "{frame}");
        for epoch in 0..3 {
            assert!(
                frame.lines().any(|l| l.trim_start().starts_with(&format!("│{epoch} "))
                    || l.contains(&format!("│{epoch} "))),
                "epoch {epoch} row missing:\n{frame}"
            );
        }
    }

    #[test]
    fn events_tab_renders_feed_or_placeholder() {
        let state = tiny_state();
        let frame =
            render(&state, 3, Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT)).to_plain_text();
        assert!(frame.contains("Fault / breaker / autoscaler feed"), "{frame}");
        if state.feed.is_empty() {
            assert!(frame.contains("(no events yet)"), "{frame}");
        } else {
            assert!(frame.contains("epoch") && frame.contains("server"), "{frame}");
            assert!(state.feed.iter().any(|r| frame.contains(r.what.as_str())), "{frame}");
        }

        let empty = Cockpit::new(2, 3, Nanos::from_micros(500.0));
        let frame =
            render(&empty, 3, Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT)).to_plain_text();
        assert!(frame.contains("(no events yet)"), "{frame}");
        assert!(frame.contains("epoch 0/3"), "{frame}");
    }

    #[test]
    fn opportunity_tab_shows_sparkline_and_recovery_heatmap() {
        let state = tiny_state();
        let frame =
            render(&state, 4, Rect::new(0, 0, HEADLESS_WIDTH, HEADLESS_HEIGHT)).to_plain_text();
        assert!(frame.contains("Sleepable idle"), "{frame}");
        assert!(frame.contains("Recovery heatmap"), "{frame}");
        assert!(frame.contains("s00") && frame.contains("s01"), "{frame}");
        let row = frame.lines().find(|l| l.contains("s00")).unwrap();
        let cells: String = row.chars().filter(|c| "P·░▒▓█ ".contains(*c)).collect();
        assert!(!cells.is_empty(), "{row}");
        // Every loaded server-epoch carries a real recovery ratio.
        for ev in &state.events {
            for s in &ev.servers {
                if matches!(s.role, ServerRole::Loaded) {
                    assert!((0.0..=1.0).contains(&s.opportunity.recovery()));
                }
            }
        }
    }

    #[test]
    fn headless_frames_are_reproducible() {
        let a = headless_frame(&tiny_state());
        let b = headless_frame(&tiny_state());
        assert_eq!(a, b);
        // All five tabs present, each selected exactly once.
        for title in TAB_TITLES {
            assert_eq!(a.matches(&format!("[{title}]")).count(), 1, "{title}");
        }
    }

    #[test]
    fn headless_watch_runs_end_to_end() {
        run_watch(&tiny_args(), &TelemetryArgs::default(), &RobustnessArgs::default(), Vec::new())
            .unwrap();
    }
}
