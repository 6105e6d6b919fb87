//! Bulge-aware search: off-target sites with insertions/deletions.
//!
//! §II.A of the paper notes Cas-OFFinder "can also predict off-target sites
//! with deletions or insertions"; this example exercises that versatility
//! claim on a genome with hand-planted bulged sites.
//!
//! ```text
//! cargo run --example bulge_search
//! ```

use cas_offinder::bulge::{search_with_bulges, BulgeLimits};
use cas_offinder::SearchInput;
use genome::{Assembly, Chromosome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small genome with three planted variants of the guide ACGTACGTCC:
    //  - a perfect match,
    //  - a site with one extra genomic base   (DNA bulge),
    //  - a site with one deleted genomic base (RNA bulge).
    let guide = b"ACGTACGTCC";
    let mut seq = Vec::new();
    seq.extend_from_slice(b"TTTTTTTT");
    seq.extend_from_slice(b"ACGTACGTCCGG"); // exact + GG PAM
    seq.extend_from_slice(b"TTTTTTTT");
    seq.extend_from_slice(b"ACGTAACGTCCGG"); // extra A -> DNA bulge
    seq.extend_from_slice(b"TTTTTTTT");
    seq.extend_from_slice(b"ACGACGTCCGG"); // missing T -> RNA bulge
    seq.extend_from_slice(b"TTTTTTTT");

    let mut assembly = Assembly::new("bulge-demo");
    assembly.push(Chromosome::new("chr1", seq));

    // Pattern: ten wildcards for the spacer, then the GG PAM.
    let input = SearchInput::parse(&format!(
        "bulge-demo\nNNNNNNNNNNGG\n{}NN 1\n",
        String::from_utf8_lossy(guide)
    ))?;

    let limits = BulgeLimits {
        max_dna: 1,
        max_rna: 1,
    };
    let hits = search_with_bulges(&assembly, &input, limits);

    println!("bulge-aware search over {} bp:", assembly.total_len());
    println!(
        "{:<8} {:<10} {:<6} {:<4} {:<4} site",
        "class", "position", "strand", "mm", "pos"
    );
    for hit in &hits {
        println!(
            "{:<8} {:<10} {:<6} {:<4} {:<4} {}",
            hit.bulge.to_string(),
            hit.site.position,
            hit.site.strand.to_string(),
            hit.site.mismatches,
            hit.bulge_pos,
            String::from_utf8_lossy(&hit.site.site)
        );
    }

    let classes: Vec<String> = hits.iter().map(|h| h.bulge.to_string()).collect();
    assert!(classes.iter().any(|c| c == "X"), "plain hit expected");
    assert!(classes.iter().any(|c| c == "DNA:1"), "DNA bulge expected");
    assert!(classes.iter().any(|c| c == "RNA:1"), "RNA bulge expected");
    println!("\nfound all three classes: exact, DNA bulge, RNA bulge.");
    Ok(())
}
