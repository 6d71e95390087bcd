/**
 * @file
 * halint output formats: text, JSON and SARIF 2.1.0.
 */

#include "halint.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "json_mini.hh"

namespace halint {

// --------------------------------------------------------------------
// Formats
// --------------------------------------------------------------------

std::string
formatText(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    for (const Diagnostic &d : diags)
        os << d.file << ":" << d.line << ": " << d.rule << ": "
           << d.message << "\n";
    return os.str();
}

std::string
formatJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    os << "{\n  \"diagnostics\": [";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? ",\n" : "\n")
           << "    {\"file\": \"" << jsonEscape(d.file)
           << "\", \"line\": " << d.line << ", \"rule\": \""
           << jsonEscape(d.rule) << "\", \"message\": \""
           << jsonEscape(d.message) << "\"}";
    }
    os << (diags.empty() ? "]" : "\n  ]") << ",\n  \"count\": "
       << diags.size() << "\n}\n";
    return os.str();
}

std::string
formatSarif(const std::vector<Diagnostic> &diags)
{
    // Rule metadata: id -> short description, collected from the
    // diagnostics actually present plus the static table.
    static const std::map<std::string, std::string> kRuleDesc{
        {"HAL-W000", "malformed halint directive"},
        {"HAL-W001", "wall-clock time source in simulation code"},
        {"HAL-W002", "unseeded or non-deterministic RNG"},
        {"HAL-W003", "unordered container iteration in src/"},
        {"HAL-W004", "allocation inside a hotpath-annotated body"},
        {"HAL-W005", "impure parallelFor callback"},
        {"HAL-W006", "header hygiene (using namespace, etc.)"},
        {"HAL-W007", "thread primitive in the DES core"},
        {"HAL-W008",
         "allocation transitively reachable from a hotpath root"},
        {"HAL-W010",
         "kFields/stats registration drifted from bench_schema.json"},
    };
    std::set<std::string> used;
    for (const Diagnostic &d : diags)
        used.insert(d.rule);
    std::ostringstream os;
    os << "{\n"
          "  \"version\": \"2.1.0\",\n"
          "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
          "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
          "  \"runs\": [\n"
          "    {\n"
          "      \"tool\": {\n"
          "        \"driver\": {\n"
          "          \"name\": \"halint\",\n"
          "          \"informationUri\": "
          "\"https://example.invalid/halsim/tools/halint\",\n"
          "          \"rules\": [";
    bool first = true;
    for (const std::string &id : used) {
        const auto it = kRuleDesc.find(id);
        os << (first ? "\n" : ",\n")
           << "            {\"id\": \"" << jsonEscape(id)
           << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(it != kRuleDesc.end() ? it->second
                                               : "halint rule")
           << "\"}}";
        first = false;
    }
    os << (used.empty() ? "]" : "\n          ]")
       << "\n        }\n      },\n      \"results\": [";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? ",\n" : "\n")
           << "        {\"ruleId\": \"" << jsonEscape(d.rule)
           << "\", \"level\": \"warning\", \"message\": {\"text\": \""
           << jsonEscape(d.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << jsonEscape(d.file)
           << "\"}, \"region\": {\"startLine\": "
           << std::max(d.line, 1) << "}}}]}";
    }
    os << (diags.empty() ? "]" : "\n      ]")
       << "\n    }\n  ]\n}\n";
    return os.str();
}

} // namespace halint
