//! Tables 1–2: the data sets and the delay components, printed from the
//! code so they can never drift from the implementation.

use ietf_workloads::table1 as data_sets;
use wifi_frames::phy::Rate;
use wifi_frames::timing::{data_airtime_us, delay};

use super::{Datasets, SweepArgs, Text};

/// Table 1: the two sets of IETF wireless network data.
pub fn table1(_data: &mut Datasets, _args: &SweepArgs, out: &mut Text) {
    let rows: Vec<Vec<String>> = data_sets()
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.date.to_string(),
                r.channel.to_string(),
                r.time.to_string(),
            ]
        })
        .collect();
    out.series(
        "Table 1: The two sets of IETF wireless network data",
        &["Data set", "Day", "Ch", "Time"],
        &rows,
    );
}

/// Table 2: delay components in microseconds, as implemented by
/// `wifi_frames::timing`.
pub fn table2(_data: &mut Datasets, _args: &SweepArgs, out: &mut Text) {
    let rows = vec![
        vec!["DIFS".into(), delay::DIFS.to_string()],
        vec!["SIFS".into(), delay::SIFS.to_string()],
        vec!["RTS".into(), delay::RTS.to_string()],
        vec!["CTS".into(), delay::CTS.to_string()],
        vec!["ACK".into(), delay::ACK.to_string()],
        vec!["BEACON".into(), delay::BEACON.to_string()],
        vec!["BO".into(), delay::BO.to_string()],
        vec!["PLCP".into(), delay::PLCP.to_string()],
        vec!["DATA(size)(rate)".into(), "PLCP + 8*(34+size)/rate".into()],
    ];
    out.series(
        "Table 2: Delay components (microseconds)",
        &["Component", "Delay (µs)"],
        &rows,
    );

    // Spot checks of the DATA formula at the class boundaries.
    let rows: Vec<Vec<String>> = [64u64, 400, 800, 1200, 1472]
        .into_iter()
        .map(|size| {
            let airtimes = Rate::ALL.map(|rate| data_airtime_us(size, rate).to_string());
            std::iter::once(size.to_string()).chain(airtimes).collect()
        })
        .collect();
    out.series(
        "D_DATA(size)(rate) examples (µs)",
        &["payload B", "1 Mbps", "2 Mbps", "5.5 Mbps", "11 Mbps"],
        &rows,
    );
}
