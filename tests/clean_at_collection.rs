//! Collection is where a path is cleaned (§4.2): the collector records
//! each announced path with its prepending collapsed, records no looped
//! or empty path, and shares the tap's path when cleaning changes
//! nothing. Labeling reads the clean paths as recorded.

use beacon::BeaconSchedule;
use bgpsim::rib::Route;
use bgpsim::{AggregatorStamp, AsId, AsPath, Prefix, TapRecord};
use collector::{CollectorConfig, CollectorSet, Dump, Project, UpdateRecord};
use netsim::faults::FaultCounters;
use netsim::{SimDuration, SimTime};
use signature::{label_dump_with_outages, LabelingConfig};

const VP: AsId = AsId(900);

fn prefix() -> Prefix {
    "10.0.0.0/24".parse().unwrap()
}

fn path(ids: &[u32]) -> AsPath {
    ids.iter().map(|&i| AsId(i)).collect()
}

/// The VP's best route changed at `at` to `path`, stamped `sent`.
fn announce(at: SimTime, sent: SimTime, path: AsPath) -> TapRecord {
    TapRecord {
        vantage: VP,
        time: at,
        prefix: prefix(),
        route: Some(Route {
            path,
            aggregator: Some(AggregatorStamp::new(sent)),
        }),
    }
}

fn withdraw(at: SimTime) -> TapRecord {
    TapRecord {
        vantage: VP,
        time: at,
        prefix: prefix(),
        route: None,
    }
}

/// The taps through a noiseless collector with no fault plan.
fn collect(taps: &[TapRecord]) -> Dump {
    CollectorSet::single(&[VP], Project::Isolario).process_with_faults(
        taps,
        &CollectorConfig::clean(),
        SimTime::from_mins(24 * 60),
        None,
        &mut FaultCounters::default(),
    )
}

/// The dump's one record, from the VP's one stream, keyed by its header.
fn only_record(dump: &Dump) -> &UpdateRecord {
    let streams: Vec<_> = dump.streams().collect();
    assert_eq!(streams.len(), 1, "one stream");
    let (p, vp, project, records) = streams[0];
    assert_eq!((p, vp, project), (prefix(), VP, Project::Isolario));
    assert_eq!(records.len(), 1, "one record");
    &records[0]
}

#[test]
fn a_prepended_tap_path_is_recorded_collapsed() {
    let t = SimTime::from_secs(10);
    let dump = collect(&[announce(t, t, path(&[900, 100, 100, 100, 65000]))]);
    let recorded = only_record(&dump).path.as_ref().expect("an announcement");
    assert_eq!(recorded.asns(), &[AsId(900), AsId(100), AsId(65000)]);
}

#[test]
fn looped_and_empty_tap_paths_are_not_recorded() {
    let t = SimTime::from_secs(10);
    let dump = collect(&[
        announce(t, t, path(&[900, 100, 900, 65000])),
        announce(t, t, path(&[900, 100, 100, 200, 100, 65000])),
        announce(t, t, AsPath::empty()),
        withdraw(t),
    ]);
    assert!(
        !only_record(&dump).is_announcement(),
        "only the withdrawal is recorded"
    );
}

#[test]
fn a_clean_tap_path_is_shared_not_copied() {
    let t = SimTime::from_secs(10);
    let tap = announce(t, t, path(&[900, 100, 65000]));
    let dump = collect(std::slice::from_ref(&tap));
    let tapped = &tap.route.as_ref().expect("an announcement").path;
    let recorded = only_record(&dump).path.as_ref().expect("an announcement");
    assert!(std::ptr::eq(recorded.asns(), tapped.asns()));
}

#[test]
fn prepended_paths_collapse_to_one_label() {
    let s = BeaconSchedule::standard(
        prefix(),
        AsId(65000),
        SimDuration::from_mins(1),
        SimDuration::from_hours(2),
        SimTime::ZERO,
        3,
    );
    // A faithful non-RFD stream: every beacon event arrives 30 s later.
    // Half the announcements carry a prepended variant of the path, and
    // a looped copy arrives beside each one.
    let lag = SimDuration::from_secs(30);
    let mut taps = vec![announce(s.start + lag, s.start, path(&[900, 100, 65000]))];
    for i in 0..s.cycles {
        for (j, e) in s.burst_events(i).iter().enumerate() {
            let at = e.at + lag;
            if j % 2 == 0 {
                taps.push(withdraw(at));
                continue;
            }
            let raw = match j % 4 {
                1 => path(&[900, 100, 100, 100, 65000]),
                _ => path(&[900, 100, 65000]),
            };
            taps.push(announce(at, e.at, raw));
            taps.push(announce(at, e.at, path(&[900, 100, 900, 65000])));
        }
    }
    let dump = collect(&taps);
    let labels = label_dump_with_outages(&dump, &s, &LabelingConfig::default(), dump.vp_outages());
    assert_eq!(labels.len(), 1, "prepending must not split the path");
    let label = &labels[0];
    assert_eq!(label.path.asns(), &[AsId(900), AsId(100), AsId(65000)]);
    assert_eq!(label.pairs_total, 3);
    assert!(!label.rfd);
}
