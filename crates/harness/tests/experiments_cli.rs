//! The `experiments` command line: an unknown experiment, a misspelt
//! option and `--out` without its value each stop the run before it
//! starts, with one `error:` line and the usage on stderr and exit 2.
//! Before, each exited 0: the first ran nothing, the second ran every
//! experiment at full size, the third overwrote `results/`.

use std::process::Command;

fn assert_rejected(args: &[&str], error: &str) {
    // Run where a wrongly accepted `--out` could write no tracked file.
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    assert_eq!(stderr.lines().next(), Some(error), "{args:?}");
    assert!(
        stderr.contains("\nusage: experiments "),
        "{args:?}: {stderr}"
    );
    assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    std::fs::remove_dir(&dir).expect("nothing written");
}

#[test]
fn malformed_invocations_are_usage_errors() {
    assert_rejected(
        &["fig10"],
        "error: unknown experiment \"fig10\" (all, table1, fig4, fig5, fig6, fig7, fig8, fig9, \
         ablations, extensions)",
    );
    assert_rejected(&["table1", "--quik"], "error: unknown option \"--quik\"");
    assert_rejected(&["table1", "--out"], "error: --out is missing its value");
}
