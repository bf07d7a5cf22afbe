//! The paper's Figs. 7–10 comparison as bands: each Hayat/VAA ratio of the
//! committed campaign exports (`results/campaign_dark{25,50}.json`, which CI
//! regenerates byte for byte) must lie within its band around the value the
//! paper reports. EXPERIMENTS.md lists each band next to its figure.

use hayat::sim::campaign::PolicyKind;
use hayat::{CampaignResult, CampaignSummary};
use std::ops::RangeInclusive;

/// One band: the figure, the dark-silicon percentage of the campaign, the
/// summary metric whose Hayat/VAA ratio is checked, and the allowed range.
struct Band {
    figure: &'static str,
    dark: u32,
    metric: fn(&CampaignSummary) -> f64,
    allowed: RangeInclusive<f64>,
}

const BANDS: [Band; 7] = [
    Band {
        figure: "Fig. 7 DTM migrations",
        dark: 25,
        metric: |s| s.mean_dtm_migrations,
        allowed: f64::NEG_INFINITY..=1.0,
    },
    Band {
        figure: "Fig. 7 DTM migrations",
        dark: 50,
        metric: |s| s.mean_dtm_migrations,
        allowed: f64::NEG_INFINITY..=1.0,
    },
    Band {
        figure: "Fig. 8 T_avg over ambient",
        dark: 25,
        metric: |s| s.mean_temp_over_ambient,
        allowed: 0.95..=1.05,
    },
    Band {
        figure: "Fig. 8 T_avg over ambient",
        dark: 50,
        metric: |s| s.mean_temp_over_ambient,
        allowed: 0.90..=1.00,
    },
    Band {
        figure: "Fig. 9 chip-fmax aging rate",
        dark: 50,
        metric: |s| s.mean_chip_fmax_aging_rate,
        allowed: f64::NEG_INFINITY..=0.10,
    },
    Band {
        figure: "Fig. 10 avg-fmax aging rate",
        dark: 25,
        metric: |s| s.mean_avg_fmax_aging_rate,
        allowed: 0.887..=0.987,
    },
    Band {
        figure: "Fig. 10 avg-fmax aging rate",
        dark: 50,
        metric: |s| s.mean_avg_fmax_aging_rate,
        allowed: 0.72..=0.82,
    },
];

/// The committed campaign export at `dark`% dark silicon.
fn committed_campaign(dark: u32) -> CampaignResult {
    let path = format!(
        "{}/../../results/campaign_dark{dark}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let json = std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("read {path}: {err}"));
    serde_json::from_str(&json).unwrap_or_else(|err| panic!("parse {path}: {err}"))
}

#[test]
fn hayat_to_vaa_ratios_stay_within_the_paper_bands() {
    let campaigns = [25, 50].map(|dark| (dark, committed_campaign(dark)));
    let mut misses = Vec::new();
    for band in &BANDS {
        let (_, result) = campaigns
            .iter()
            .find(|(dark, _)| *dark == band.dark)
            .expect("a committed campaign at every banded dark fraction");
        let vaa = result.summary(PolicyKind::Vaa).expect("VAA ran");
        let hayat = result.summary(PolicyKind::Hayat).expect("Hayat ran");
        let ratio = (band.metric)(&hayat) / (band.metric)(&vaa);
        if !band.allowed.contains(&ratio) {
            misses.push(format!(
                "{} at {}% dark: Hayat/VAA {ratio:.3} outside {:?}",
                band.figure, band.dark, band.allowed
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
