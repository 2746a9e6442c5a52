//! Fig. 2 — the RFD penalty from a router's perspective.
//!
//! Reproduces the paper's illustration: a prefix flaps every 2 minutes
//! for 40 minutes, then goes quiet. The penalty climbs by 1000 per flap
//! with exponential decay in between, crosses the suppress threshold
//! (t1), saturates, and after the oscillation stops decays down to the
//! reuse threshold (t3) where the prefix is released.

use bgpsim::rfd::{FlapKind, RfdState};
use bgpsim::VendorProfile;
use netsim::{SimDuration, SimTime};

use super::{io, Suite, Write};

/// Render the figure after its banner.
pub fn render(suite: &mut Suite, w: &mut dyn Write) -> io::Result<()> {
    // With --trace, the same timeline is recorded as sim-time events:
    // the penalty as a counter, suppression as a span, flaps as instants.
    let mut trace = suite
        .sim_trace_enabled()
        .then(|| obs::TraceBuffer::new(1 << 12));
    let lane = obs::Lane::MAIN;
    if let Some(t) = &mut trace {
        t.set_lane_name(lane, "rfd penalty (Cisco)");
    }
    let params = VendorProfile::Cisco.params();
    let mut state = RfdState::new();

    let interval = SimDuration::from_mins(2);
    let flap_until = SimTime::from_mins(40);
    let horizon = SimTime::from_mins(120);

    let mut events: Vec<(SimTime, FlapKind)> = Vec::new();
    let mut t = SimTime::ZERO;
    let mut withdraw = true;
    while t < flap_until {
        events.push((
            t,
            if withdraw {
                FlapKind::Withdrawal
            } else {
                FlapKind::Readvertisement
            },
        ));
        withdraw = !withdraw;
        t += interval;
    }

    writeln!(w, "time_min  penalty  suppressed  event")?;
    let mut suppressed_at: Option<SimTime> = None;
    let mut released_at: Option<SimTime> = None;
    let mut clock = SimTime::ZERO;
    let mut event_iter = events.into_iter().peekable();
    while clock <= horizon {
        let mut label = String::new();
        while let Some(&(at, kind)) = event_iter.peek() {
            if at > clock {
                break;
            }
            event_iter.next();
            let tr = state.record(kind, at, &params);
            label = format!("{kind:?} -> {tr:?}");
            if let Some(t) = &mut trace {
                let name = match kind {
                    FlapKind::Withdrawal => "withdrawal",
                    FlapKind::Readvertisement => "readvertisement",
                    _ => "flap",
                };
                t.instant_sim(name, lane, at.as_millis());
            }
            if tr == bgpsim::rfd::RfdTransition::Suppressed {
                suppressed_at = Some(at);
                if let Some(t) = &mut trace {
                    t.begin_sim("suppressed", lane, at.as_millis());
                }
            }
        }
        if state.is_suppressed() && state.tick(clock, &params) {
            label = "Released".to_string();
            released_at = Some(clock);
            if let Some(t) = &mut trace {
                t.end_sim("suppressed", lane, clock.as_millis());
            }
        }
        if let Some(t) = &mut trace {
            t.counter_sim(
                "penalty",
                lane,
                clock.as_millis(),
                state.penalty_at(clock, &params),
            );
        }
        writeln!(
            w,
            "{:>8.1}  {:>7.0}  {:>10}  {label}",
            clock.as_mins_f64(),
            state.penalty_at(clock, &params),
            if state.is_suppressed() { "yes" } else { "no" }
        )?;
        clock += SimDuration::from_mins(2);
    }

    writeln!(w)?;
    writeln!(w, "suppress-threshold = {}", params.suppress_threshold)?;
    writeln!(w, "reuse-threshold    = {}", params.reuse_threshold)?;
    writeln!(w, "penalty ceiling    = {:.0}", params.penalty_ceiling())?;
    if let (Some(s), Some(r)) = (suppressed_at, released_at) {
        writeln!(w, "t1 (suppressed) = {s}, t3 (released) = {r}")?;
        writeln!(
            w,
            "suppression lasted {:.1} min (max-suppress-time {} min)",
            r.saturating_since(s).as_mins_f64(),
            params.max_suppress_time.as_mins_f64()
        )?;
    }
    suite.merge_trace(trace);
    Ok(())
}
