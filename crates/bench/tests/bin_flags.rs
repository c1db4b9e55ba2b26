//! Command lines of the bench binaries, driven through the built binaries.

use std::process::Command;

#[test]
fn scale_rejects_the_shared_scale_and_seed_flags_it_cannot_honour() {
    // `scale` sizes its worlds by `--smoke` and pins its own seed, so these
    // must exit 2 naming the flag instead of being accepted and ignored.
    for argv in [
        &["--seed", "3"][..],
        &["--fast"],
        &["--medium"],
        &["--paper"],
        &["--tune"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scale"))
            .args(argv)
            .output()
            .expect("run scale");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{:?}", argv[0])),
            "{argv:?}: {stderr}"
        );
    }
}
