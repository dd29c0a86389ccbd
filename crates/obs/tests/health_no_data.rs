//! "No data" is its own health state: an objective whose metric was never
//! recorded, or whose ratio has seen no traffic, holds (it is not a
//! violation) but is flagged `no_data` and rendered as "no data", never as
//! "ok". Own binary: the monitor is process-global.

use obs::{SloRule, SloSpec};

#[test]
fn absent_metrics_and_zero_traffic_ratios_render_as_no_data() {
    obs::counter("health.nodata.hits").add(0);
    obs::counter("health.nodata.misses").add(0);
    obs::gauge("health.nodata.lag").set(3);
    obs::health::set_slos(vec![
        SloSpec {
            name: "absent_gauge".to_string(),
            rule: SloRule::GaugeAtMost {
                metric: "health.nodata.never_recorded".to_string(),
                ceiling: 5,
            },
        },
        SloSpec {
            name: "idle_ratio".to_string(),
            rule: SloRule::RatioAtLeast {
                part: "health.nodata.hits".to_string(),
                rest: "health.nodata.misses".to_string(),
                floor_bp: 2_500,
            },
        },
        SloSpec {
            name: "recorded_gauge".to_string(),
            rule: SloRule::GaugeAtMost { metric: "health.nodata.lag".to_string(), ceiling: 5 },
        },
    ]);
    let report = obs::health::evaluate(&obs::snapshot());
    if !obs::enabled() {
        assert_eq!(report, obs::HealthReport::default());
        return;
    }

    let [absent, idle, recorded] = &report.verdicts[..] else {
        panic!("three verdicts expected, got {:?}", report.verdicts);
    };
    for verdict in [absent, idle] {
        assert!(verdict.healthy, "{}: no data is not a violation", verdict.slo);
        assert!(verdict.no_data, "{}: nothing to judge", verdict.slo);
        assert_eq!((verdict.observed, verdict.burn), (0, 0), "{}", verdict.slo);
        assert_eq!(verdict.state(), "no data");
    }
    assert!(recorded.healthy && !recorded.no_data);
    assert_eq!((recorded.observed, recorded.state()), (3, " ok "));
    assert!(report.healthy());
    assert_eq!(report.no_data_count(), 2);

    let text = report.render_text();
    assert!(text.contains("(2 without data)"), "{text}");
    for (slo, state) in [("absent_gauge", "no data"), ("idle_ratio", "no data")] {
        let line = text.lines().find(|line| line.contains(slo)).expect("one row per objective");
        assert!(line.contains(&format!("[{state}]")), "{line}");
    }
    let line = text.lines().find(|line| line.contains("recorded_gauge")).expect("row");
    assert!(line.contains("[ ok ]"), "{line}");
}
