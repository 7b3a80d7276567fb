//! Scope fixture for pool-shared-capture: a name mutated in one function
//! is a different variable from a same-named capture in another function's
//! worker closure, and a closure's `for` binding is not a capture. A capture
//! mutated in its own function still fires.

fn reduce(irs: &mut Vec<Ir>) {
    for ir in irs.iter_mut() {
        for link in &mut ir.links {
            link.touch();
        }
    }
}

fn annotate(ir: &Ir, wp: &Pool) -> usize {
    let out = wp.run("t", 4, |t| ir.links.len() + t);
    out.len()
}

fn relabel(irs: &[Ir], wp: &Pool) -> usize {
    let mut seen = 0;
    let mut ir = 0;
    ir += 1;
    let out = wp.run("t", 4, |t| {
        let mut n = t;
        for (i, ir) in irs.iter().enumerate() {
            n += ir.links.len() + i;
        }
        n + seen
    });
    seen += out.len();
    seen + ir
}
