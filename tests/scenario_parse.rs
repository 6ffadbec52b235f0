//! The scenario language's failure modes: every malformed file must be
//! rejected with an error carrying the line/column it came from and a
//! message naming the offending construct. A config language that
//! silently ignores typos ("deauht = true") is worse than no config
//! language — these tests pin the loud path.

use rogue_scenario::{load_source, parse_scenario};

/// A minimal valid scenario all the malformed variants derive from.
const VALID: &str = r#"
name = "parse-suite"
seed = 7
duration = "5s"

[[ap]]
ssid = "NET"
bssid = "aa:bb:cc:dd:00:01"
channel = 6
pos = [10.0, 0.0]

[[server]]
name = "www"
ip = "10.0.0.10"
content = "news"

[[population]]
name = "crowd"
count = 4
ssid = "NET"
area = [0.0, 0.0, 50.0, 20.0]

[[population.traffic]]
kind = "http"
server = "www"
"#;

fn err_of(src: &str) -> rogue_scenario::Error {
    parse_scenario(src).expect_err("malformed file must be rejected")
}

#[test]
fn the_baseline_file_is_valid() {
    let sc = parse_scenario(VALID).unwrap();
    assert_eq!(sc.name, "parse-suite");
    assert_eq!(sc.populations[0].count, 4);
}

#[test]
fn unknown_keys_are_rejected_with_position() {
    // Typo'd extra key inside [[ap]] — lands on line 10 of this variant.
    let src = VALID.replace("channel = 6", "channel = 6\nchanel = 11");
    let err = err_of(&src);
    assert!(err.msg.contains("unknown key `chanel`"), "{err}");
    assert_eq!(err.span.line, 10, "{err}");
    assert!(err.span.col > 1, "{err}");

    // Dropping a required key is caught too, named and positioned.
    let err = err_of(&VALID.replace("channel = 6\n", ""));
    assert!(err.msg.contains("missing required key `channel`"), "{err}");
    assert_eq!(err.span.line, 6, "the [[ap]] header's line: {err}");

    // Unknown key appended to the trailing traffic entry.
    let err = err_of(&format!("{VALID}burst = true\n"));
    assert!(err.msg.contains("unknown key `burst`"), "{err}");

    // Unknown key in a fresh top-level section.
    let err = err_of(&format!("{VALID}\n[wids]\nsensitivity = 3\n"));
    assert!(err.msg.contains("unknown key `sensitivity`"), "{err}");
}

#[test]
fn bad_macs_are_rejected() {
    let src = VALID.replace("aa:bb:cc:dd:00:01", "aa:bb:cc:dd:00");
    let err = err_of(&src);
    assert!(err.msg.contains("invalid MAC"), "{err}");
    assert_eq!(err.span.line, 8, "{err}");

    let src = VALID.replace("aa:bb:cc:dd:00:01", "not-a-mac");
    assert!(err_of(&src).msg.contains("invalid MAC"));
}

#[test]
fn bad_ips_are_rejected() {
    let src = VALID.replace("\"10.0.0.10\"", "\"10.0.0.256\"");
    let err = err_of(&src);
    assert!(err.msg.contains("invalid IPv4"), "{err}");
    assert_eq!(err.span.line, 14, "{err}");

    let src = VALID.replace("\"10.0.0.10\"", "\"gateway\"");
    assert!(err_of(&src).msg.contains("invalid IPv4"));
}

#[test]
fn out_of_range_channels_are_rejected() {
    for bad in ["0", "15", "-3"] {
        let src = VALID.replace("channel = 6", &format!("channel = {bad}"));
        let err = err_of(&src);
        assert!(err.msg.contains("out of range"), "{bad}: {err}");
        assert_eq!(err.span.line, 9, "{err}");
    }
}

#[test]
fn bad_durations_are_rejected() {
    for bad in ["\"5\"", "\"fast\"", "\"-2s\"", "\"1.2.3s\""] {
        let src = VALID.replace("\"5s\"", bad);
        let err = err_of(&src);
        assert_eq!(err.span.line, 4, "{bad}: {err}");
    }
}

#[test]
fn toml_level_errors_carry_position() {
    // Missing `=`.
    let err = err_of("name \"x\"\n");
    assert!(err.msg.contains("expected `=`"), "{err}");
    assert_eq!(err.span.line, 1);

    // Duplicate key.
    let err = err_of("name = \"a\"\nname = \"b\"\n");
    assert!(err.msg.contains("duplicate key"), "{err}");
    assert_eq!(err.span.line, 2);

    // Unterminated string.
    let err = err_of("name = \"open\n");
    assert!(err.msg.contains("unterminated"), "{err}");

    // Redefined plain table.
    let err = err_of("name = \"x\"\n[wids]\n[wids]\n");
    assert!(err.msg.contains("defined twice"), "{err}");
    assert_eq!(err.span.line, 3);
}

#[test]
fn dangling_references_are_rejected() {
    // Traffic to a server nobody defined.
    let src = VALID.replace("server = \"www\"", "server = \"cdn\"");
    let err = err_of(&src);
    assert!(err.msg.contains("`cdn`"), "{err}");

    // Population joining an SSID no AP advertises.
    let src = VALID.replace("ssid = \"NET\"\narea", "ssid = \"GHOST\"\narea");
    let err = err_of(&src);
    assert!(err.msg.contains("`GHOST`"), "{err}");

    // Rogue cloning an unknown AP.
    let src = format!("{VALID}\n[[rogue]]\nclone_ap = \"GHOST\"\nchannel = 6\npos = [0.0, 0.0]\n");
    let err = err_of(&src);
    assert!(err.msg.contains("rogue clones ssid `GHOST`"), "{err}");
}

#[test]
fn semantic_range_checks_fire() {
    // Zero-count population.
    let err = err_of(&VALID.replace("count = 4", "count = 0"));
    assert!(err.msg.contains("at least 1"), "{err}");

    // Inverted area.
    let err = err_of(&VALID.replace("[0.0, 0.0, 50.0, 20.0]", "[50.0, 0.0, 0.0, 20.0]"));
    assert!(err.msg.contains("x0 < x1"), "{err}");

    // Share outside 0..=1.
    let err = err_of(&format!("{VALID}share = 1.5\n"));
    assert!(err.msg.contains("share"), "{err}");

    // Waypoint speeds must be a positive range.
    let src =
        format!("{VALID}\n[population.mobility]\nmodel = \"waypoint\"\nspeed_mps = [0.0, 2.0]\n");
    let err = err_of(&src);
    assert!(err.msg.contains("speed_mps"), "{err}");

    // UDP payload below the 16-byte floor.
    let src = VALID.replace(
        "kind = \"http\"\nserver = \"www\"",
        "kind = \"udp\"\nserver = \"www\"\nrate_pps = 10\npayload = 8",
    );
    let err = err_of(&src);
    assert!(err.msg.contains("16 bytes"), "{err}");
}

#[test]
fn shadowing_sigma_must_be_finite_and_non_negative() {
    // Both parse sites: the summary world's [medium] and the paper
    // world's [corp]. σ = 0 (shadowing off) stays legal.
    let medium = format!("{VALID}\n[medium]\nshadowing_sigma_db = 2.0\n");
    let corp = "name = \"corp\"\n[corp]\nshadowing_sigma_db = 0.0\n[e10]\n";
    assert!(parse_scenario(&medium).is_ok());
    for bad in ["-1.0", "1e999", "-1e999"] {
        let err = err_of(&medium.replace("= 2.0", &format!("= {bad}")));
        assert!(err.msg.contains("shadowing_sigma_db"), "{bad}: {err}");
        assert_eq!(err.span.line, 28, "{bad}: the key's own line: {err}");
        let err = err_of(&corp.replace("= 0.0", &format!("= {bad}")));
        assert!(err.msg.contains("shadowing_sigma_db"), "{bad}: {err}");
        assert_eq!(err.span.line, 3, "{bad}: the key's own line: {err}");
    }

    // The same check guards --override values.
    let err = load_source(&medium, &["medium.shadowing_sigma_db=-1.0".to_string()])
        .expect_err("negative sigma override");
    assert!(err.msg.contains("shadowing_sigma_db"), "{err}");
    assert!(err.span.line > 0, "error must carry a source span: {err}");
    let err = load_source(corp, &["corp.shadowing_sigma_db=-1.0".to_string()])
        .expect_err("negative sigma override");
    assert!(err.msg.contains("shadowing_sigma_db"), "{err}");
    assert!(err.span.line > 0, "error must carry a source span: {err}");
}

#[test]
fn positions_must_be_finite_and_within_1000_km() {
    // A file: `nan` and `inf` in an AP position, and a monitor position
    // in the paper world, are spanned errors naming their key.
    for bad in [
        "[nan, 0.0]",
        "[0.0, inf]",
        "[-inf, 0.0]",
        "[1000000.5, 0.0]",
    ] {
        let err = err_of(&VALID.replace("[10.0, 0.0]", bad));
        assert!(err.msg.contains("pos must be finite"), "{bad}: {err}");
        assert_eq!(err.span.line, 10, "{bad}: the key's own line: {err}");
    }
    let e10 = "name = \"e10\"\n[e10]\nmonitor_pos = [0.0, 0.0]\n[report]\nkind = \"e10\"\n";
    assert!(parse_scenario(e10).is_ok());
    let err = err_of(&e10.replace("[0.0, 0.0]", "[nan, 1.0]"));
    assert!(err.msg.contains("monitor_pos"), "{err}");
    assert_eq!(err.span.line, 3, "{err}");
    // The bound is inclusive, and the checked-in scale stays far below.
    assert!(parse_scenario(&VALID.replace("[10.0, 0.0]", "[1000000.0, -1000000.0]")).is_ok());

    // An override: the ROADMAP probe `ap.0.pos=[1e300,0.0]`.
    let err = load_source(VALID, &["ap.0.pos=[1e300,0.0]".to_string()])
        .expect_err("a 1e300 m position must be rejected");
    assert!(err.msg.contains("pos must be finite"), "{err}");
    assert!(err.span.line > 0, "error must carry a source span: {err}");

    // Any other number must be finite too (`nan` is never a setting).
    let err = err_of(&VALID.replace("channel = 6", "channel = 6\ntx_power_dbm = nan"));
    assert!(err.msg.contains("finite"), "{err}");
}

#[test]
fn ticks_over_the_duration_are_bounded() {
    // VALID runs 5 s: a 5 µs tick is the largest count allowed.
    let with_tick = |tick: &str| {
        VALID.replace(
            "duration = \"5s\"",
            &format!("duration = \"5s\"\ntick = \"{tick}\""),
        )
    };
    assert_eq!(
        parse_scenario(&with_tick("5us")).unwrap().tick.as_micros(),
        5
    );
    for bad in ["4999ns", "1ns"] {
        let err = err_of(&with_tick(bad));
        assert!(
            err.msg.contains("tick") && err.msg.contains("at most 1000000"),
            "{bad}: {err}"
        );
        assert_eq!(err.span.line, 5, "{bad}: the tick's own line: {err}");
    }
    let err = err_of(&with_tick("0s"));
    assert!(err.msg.contains("tick must be positive"), "{err}");
    assert_eq!(err.span.line, 5, "{err}");

    // An override: `tick=1ns` on a 2 s run would be 2·10⁹ ticks.
    let err = load_source(
        VALID,
        &["duration=\"2s\"".to_string(), "tick=\"1ns\"".to_string()],
    )
    .expect_err("2e9 ticks must be rejected");
    assert!(err.msg.contains("tick 1ns gives 2000000000 ticks"), "{err}");
    assert!(err.span.line > 0, "error must carry a source span: {err}");
}

#[test]
fn summary_scenarios_need_something_to_run() {
    let err = err_of("name = \"empty\"\n");
    assert!(err.msg.contains("nothing to run"), "{err}");
}

#[test]
fn override_errors_surface_through_load_source() {
    let err =
        load_source(VALID, &["population.7.count=2".to_string()]).expect_err("bad override index");
    assert!(err.msg.contains("out of range"), "{err}");

    // A well-formed override producing an invalid scenario still fails
    // through the same typed validation.
    let err = load_source(VALID, &["ap.0.channel=99".to_string()])
        .expect_err("overridden channel out of range");
    assert!(err.msg.contains("out of range"), "{err}");
}

#[test]
fn overriding_a_nonexistent_path_is_a_spanned_error() {
    // VALID has no [[wids]]-style `sensor` array: indexing one must die
    // in the override pass with a position, not silently materialize a
    // table for the typed pass to stumble over (or worse, ignore).
    let err = load_source(VALID, &["sensor.0.pos=[1.0, 2.0]".to_string()])
        .expect_err("override into a missing array must fail");
    assert!(err.msg.contains("no `sensor` array"), "{err}");
    assert!(err.span.line > 0, "error must carry a source span: {err}");

    // Dying mid-walk on an existing scalar points at that scalar's
    // actual line in the file.
    let err = load_source(VALID, &["duration.secs=3".to_string()])
        .expect_err("descending through a scalar must fail");
    assert!(err.msg.contains("not a table"), "{err}");
    assert_eq!(err.span.line, 4, "`duration` lives on line 4: {err}");
}
