//! `medkb-cli` — explore the relaxation system from a terminal.
//!
//! ```text
//! medkb-cli demo                         # quickstart on the paper fragment
//! medkb-cli relax <term> [k]            # one-shot relaxation on a generated world
//! medkb-cli chat [--no-qr]              # interactive conversation (stdin)
//! medkb-cli gen <concepts> <out-dir>    # generate + save an RF2-style terminology
//! medkb-cli serve [--addr A] [--addr-file F]  # HTTP/1.1 front end on a world
//! medkb-cli http <addr> <METHOD> <path> [body]  # one-shot std TcpStream client
//! ```

use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::sync::Arc;

use medkb::eval::pipeline::{EvalConfig, EvalStack};
use medkb::nli::trainset::generate_training_queries;
use medkb::prelude::*;
use medkb::serve::{HttpConfig, HttpServer};
use medkb::snomed::{rf2, GeneratedTerminology};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("relax") => relax(&args[1..]),
        Some("chat") => chat(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("http") => http_request(&args[1..]),
        _ => {
            eprintln!(
                "usage: medkb-cli <demo | relax <term> [k] | chat [--no-qr] | \
                 gen <concepts> <out-dir> | serve [--addr A] [--addr-file F] | \
                 http <addr> <METHOD> <path> [body]>"
            );
            2
        }
    };
    std::process::exit(code);
}

fn demo() -> i32 {
    let fragment = medkb::snomed::figures::paper_fragment();
    let mut ob = OntologyBuilder::new();
    let drug = ob.concept("Drug");
    let indication = ob.concept("Indication");
    let finding = ob.concept("Finding");
    ob.relationship("treat", drug, indication);
    ob.relationship("hasFinding", indication, finding);
    let mut kb = KbBuilder::new(ob.build().expect("static ontology"));
    let fc = kb.ontology().lookup_concept("Finding").unwrap();
    for name in &fragment.flagged {
        kb.instance(name, fc);
    }
    let kb = kb.build().expect("static KB");
    let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 1);
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let ingested = ingest(&kb, fragment.ekg.clone(), &counts, None, &config).expect("ingest");
    let relaxer = QueryRelaxer::new(ingested, config);
    for term in ["pyelectasia", "pertussis", "psychogenic fever"] {
        println!("relax({term}):");
        match relaxer.relax(term, None, 4) {
            Ok(res) => {
                for a in res.answers {
                    println!("  {:.3}  {}", a.score, relaxer.ingested().ekg.name(a.concept));
                }
            }
            Err(e) => println!("  error: {e}"),
        }
    }
    0
}

fn build_stack(seed: u64) -> EvalStack {
    eprintln!("generating world (seed {seed})…");
    EvalStack::build(EvalConfig::tiny(seed)).expect("stack builds")
}

fn relax(args: &[String]) -> i32 {
    let Some(term) = args.first() else {
        eprintln!("usage: medkb-cli relax <term> [k]");
        return 2;
    };
    let k: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let stack = build_stack(42);
    let relaxer = stack.relaxer(stack.config.relax.clone());
    let ctx = stack.world.treatment_context();
    match relaxer.relax(term, Some(ctx), k) {
        Ok(res) => {
            println!(
                "\"{term}\" → {:?} (radius {})",
                relaxer.ingested().ekg.name(res.query_concept),
                res.radius_used
            );
            for a in &res.answers {
                let names: Vec<&str> =
                    a.instances.iter().map(|&i| stack.world.kb.name(i)).collect();
                println!(
                    "  {:.3}  {}  [{}]",
                    a.score,
                    relaxer.ingested().ekg.name(a.concept),
                    names.join(", ")
                );
            }
            if let Some(top) = res.answers.first() {
                println!("\nwhy the top answer:");
                let why = relaxer.explain(res.query_concept, top.concept, Some(ctx));
                for line in why.expect("answers are concepts of the world").lines() {
                    println!("  {line}");
                }
            }
            println!(
                "\n(tip: terminology names to try — {})",
                sample_terms(&stack).join(", ")
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try one of: {}", sample_terms(&stack).join(", "));
            1
        }
    }
}

fn sample_terms(stack: &EvalStack) -> Vec<String> {
    stack
        .ingested
        .flagged
        .iter()
        .take(4)
        .map(|c| stack.ingested.ekg.name(c).to_string())
        .collect()
}

fn chat(args: &[String]) -> i32 {
    let stack = build_stack(42);
    let queries = generate_training_queries(
        &stack.world.kb,
        &stack.world.contexts,
        |c| stack.world.tag_of(c),
        6,
        43,
    );
    let classifier = IntentClassifier::train(&queries);
    let extractor = EntityExtractor::build(&stack.world.kb);
    let relaxer = stack.relaxer(stack.config.relax.clone());
    let mut engine =
        ConversationEngine::new(stack.world.kb.clone(), relaxer, classifier, extractor);
    engine.use_relaxation = !args.iter().any(|a| a == "--no-qr");
    println!(
        "conversational medical KB ({}). Ask e.g. \"what drugs treat {}\". \
         Type 'exit' to quit.",
        if engine.use_relaxation { "with query relaxation" } else { "no relaxation" },
        sample_terms(&stack).first().cloned().unwrap_or_default()
    );
    let stdin = std::io::stdin();
    loop {
        print!("you> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "exit" || line == "quit" {
            break;
        }
        println!("bot> {}", engine.handle(line).text());
    }
    0
}

/// `serve`: stand up the std-only HTTP/1.1 front end (DESIGN.md §16) over a
/// generated world and run until stdin closes (interactive) or the process
/// is killed (scripts — tier1.sh backgrounds this and kills it).
///
/// With `--addr-file F` the bound address is written to `F` (first line),
/// followed by a few resolvable terminology terms — so a script using an
/// ephemeral port (`--addr 127.0.0.1:0`) can find both the port and a
/// valid `/relax` query without parsing human output.
fn serve(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:7464".to_string();
    let mut addr_file: Option<String> = None;
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return usage_serve(),
            },
            "--addr-file" => match it.next() {
                Some(v) => addr_file = Some(v.clone()),
                None => return usage_serve(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage_serve(),
            },
            _ => return usage_serve(),
        }
    }
    let stack = build_stack(seed);
    let registry = Registry::shared();
    let relax_cfg = RelaxConfig {
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..stack.config.relax.clone()
    };
    let server =
        Arc::new(RelaxServer::new(stack.ingested.clone(), relax_cfg, ServeConfig::default()));
    let http = match HttpServer::start(
        Arc::clone(&server),
        Some(registry),
        HttpConfig { addr, ..HttpConfig::default() },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return 1;
        }
    };
    let bound = http.addr();
    let terms = sample_terms(&stack);
    println!("listening on http://{bound} (epoch {})", server.epoch());
    println!("try: medkb-cli http {bound} GET /health");
    println!(
        "     medkb-cli http {bound} POST /relax '{{\"term\":\"{}\"}}'",
        terms.first().cloned().unwrap_or_default()
    );
    if let Some(f) = addr_file {
        let mut doc = bound.to_string();
        for t in &terms {
            doc.push('\n');
            doc.push_str(t);
        }
        doc.push('\n');
        if let Err(e) = std::fs::write(&f, doc) {
            eprintln!("cannot write --addr-file {f}: {e}");
            return 1;
        }
    }
    // Interactive stdin keeps serving until EOF (Ctrl-D); non-terminal
    // stdin (backgrounded under a script) would hit EOF instantly, so
    // there we park until killed.
    use std::io::IsTerminal;
    if std::io::stdin().is_terminal() {
        let mut line = String::new();
        while matches!(std::io::stdin().lock().read_line(&mut line), Ok(n) if n > 0) {
            line.clear();
        }
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    http.shutdown();
    0
}

fn usage_serve() -> i32 {
    eprintln!("usage: medkb-cli serve [--addr host:port] [--addr-file path] [--seed n]");
    2
}

/// `http`: the curl-equivalent std `TcpStream` client. One request, one
/// `connection: close` response, raw response printed to stdout; exit 0
/// iff the status is 2xx.
fn http_request(args: &[String]) -> i32 {
    let (Some(addr), Some(method), Some(path)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("usage: medkb-cli http <addr> <METHOD> <path> [json-body]");
        return 2;
    };
    let body = args.get(3).map(String::as_str).unwrap_or("");
    use std::io::{Read as _, Write as _};
    let mut stream = match std::net::TcpStream::connect(addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    if let Err(e) = stream.write_all(request.as_bytes()) {
        eprintln!("write: {e}");
        return 1;
    }
    let mut response = Vec::new();
    if let Err(e) = stream.read_to_end(&mut response) {
        eprintln!("read: {e}");
        return 1;
    }
    let text = String::from_utf8_lossy(&response);
    print!("{text}");
    if !text.ends_with('\n') {
        println!();
    }
    let ok = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .is_some_and(|status| (200..300).contains(&status));
    i32::from(!ok)
}

fn gen(args: &[String]) -> i32 {
    let (Some(concepts), Some(out)) = (args.first(), args.get(1)) else {
        eprintln!("usage: medkb-cli gen <concepts> <out-dir>");
        return 2;
    };
    let Ok(n) = concepts.parse::<usize>() else {
        eprintln!("concepts must be a number");
        return 2;
    };
    let term = GeneratedTerminology::generate(&SnomedConfig {
        concepts: n,
        ..SnomedConfig::default()
    });
    println!("generated: {}", EkgStats::compute(&term.ekg));
    match rf2::save_dir(&term.ekg, std::path::Path::new(out)) {
        Ok(()) => {
            println!("saved concepts.tsv / relationships.tsv to {out}");
            0
        }
        Err(e) => {
            eprintln!("save failed: {e}");
            1
        }
    }
}
