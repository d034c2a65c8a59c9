//! Figure 2 + Figure 4: the declarative mail-service specification.
//!
//! Prints the paper-style DSL text of the mail service, proves it parses
//! back to the programmatic specification, validates it, and shows the
//! Confidentiality modification rule in action.

#![forbid(unsafe_code)]

use ps_mail::{mail_spec, MAIL_SPEC_DSL};
use ps_spec::{parse_spec, print_spec, PropertyValue};
use ps_trace::Report;

fn main() {
    let spec = mail_spec();
    spec.validate().expect("mail spec is valid");

    let mut report = Report::new("Figure 2: declarative specification of the mail service");
    report.line(print_spec(&spec));

    let parsed = parse_spec("mail", MAIL_SPEC_DSL).expect("DSL parses");
    assert_eq!(parsed, spec, "DSL text and programmatic spec agree");
    report.line("DSL text parses to an identical specification: OK");

    report.section("Figure 4: property modification rules");
    let rule = spec.rules.get("Confidentiality").expect("rule exists");
    for row in &rule.rows {
        report.line(format!("  {row}"));
    }
    report.line("");
    report.line("Applying the rule:");
    let t = PropertyValue::Bool(true);
    let f = PropertyValue::Bool(false);
    for (input, env) in [(&t, &t), (&t, &f), (&f, &t), (&f, &f)] {
        report.line(format!(
            "  In: {input}  x  Env: {env}  =>  Out: {}",
            rule.apply(input, env)
        ));
    }

    report.section("spec size");
    report.kv("properties", spec.properties.len());
    report.kv("interfaces", spec.interfaces.len());
    report.kv("components", spec.components.len());
    report.kv("rules", spec.rules.len());
    println!("{report}");
}
