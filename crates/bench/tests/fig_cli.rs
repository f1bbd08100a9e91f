//! `bench fig` refuses a name outside the figure table, and says which
//! names it knows.

use std::process::Command;

use monarch_bench::figures::FIGURES;

#[test]
fn unknown_figure_exits_2_with_the_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["fig", "nosuch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure 'nosuch'"), "{stderr}");
    assert!(stderr.contains("bench fig <name>|all"), "{stderr}");
    for fig in FIGURES {
        assert!(
            stderr.contains(fig.name),
            "usage lacks {}: {stderr}",
            fig.name
        );
    }
}
