//! `DRTM_GIT_REV` is input from outside the program: whatever it holds,
//! the artifact it is stamped into must still parse.

use std::process::Command;

#[test]
fn hostile_git_rev_still_stamps_a_valid_artifact() {
    let path = std::env::temp_dir().join(format!("drtm-stamp-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["ycsb", "--threads", "1", "--txns", "20", "--json"])
        .arg(&path)
        .env("DRTM_GIT_REV", "a\"b\\")
        .status()
        .expect("sweep runs");
    assert!(status.success());
    let json = std::fs::read_to_string(&path).expect("artifact written");
    std::fs::remove_file(&path).ok();
    drtm_obs::jsonlint::validate(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
    assert!(
        json.starts_with(r#"{"stamp":{"git_rev":"a\"b\\","utc":""#),
        "{json}"
    );
    assert!(json.contains(r#""run_cfg":"(YcsbCfg {"#), "{json}");
}
