// Package tldinfo extracts and classifies top-level domains for the paper's
// TLD layer (Appendix B): .com, other global gTLDs, a country's own ccTLD,
// and external ccTLDs.
package tldinfo

import "strings"

// Kind classifies a TLD from the point of view of a particular country.
type Kind int

const (
	// Com is the .com TLD, broken out because it drives TLD centralization
	// globally (and is treated as insular to the U.S. in the paper's
	// Figure 22, given the historical role of the U.S. government in its
	// operation).
	Com Kind = iota
	// GlobalTLD is any other gTLD (.org, .net, .io, …).
	GlobalTLD
	// LocalCC is the country's own ccTLD.
	LocalCC
	// ExternalCC is another country's ccTLD.
	ExternalCC
)

// String returns the display name used in the paper's Figure 16 legend.
func (k Kind) String() string {
	switch k {
	case Com:
		return "com"
	case GlobalTLD:
		return "Global TLDs"
	case LocalCC:
		return "Local ccTLD"
	case ExternalCC:
		return "External ccTLDs"
	default:
		return "unknown"
	}
}

// ccTLDException maps ISO country codes whose ccTLD differs from the
// lowercase ISO code. (Among the study's 150 countries only the United
// Kingdom needs this: GB uses .uk.)
var ccTLDException = map[string]string{
	"GB": "uk",
}

// ccTLDToCountry is the inverse map, built at init from the study's country
// codes plus a handful of ccTLDs that appear in cross-border usage.
var ccTLDToCountry = map[string]string{}

// studyCountryCodes mirrors internal/countries without importing it, to
// keep tldinfo dependency-free for external adopters. The set is validated
// against internal/countries in the tests.
var studyCountryCodes = []string{
	"AE", "AF", "AL", "AM", "AO", "AR", "AT", "AU", "AZ", "BA", "BD", "BE",
	"BF", "BG", "BH", "BJ", "BN", "BO", "BR", "BW", "BY", "CA", "CD", "CH",
	"CI", "CL", "CM", "CO", "CR", "CU", "CY", "CZ", "DE", "DK", "DO", "DZ",
	"EC", "EE", "EG", "ES", "ET", "FI", "FR", "GA", "GB", "GE", "GH", "GP",
	"GR", "GT", "HK", "HN", "HR", "HT", "HU", "ID", "IE", "IL", "IN", "IQ",
	"IR", "IS", "IT", "JM", "JO", "JP", "KE", "KG", "KH", "KR", "KW", "KZ",
	"LA", "LB", "LK", "LT", "LU", "LV", "LY", "MA", "MD", "ME", "MG", "MK",
	"ML", "MM", "MN", "MO", "MQ", "MT", "MU", "MV", "MW", "MX", "MY", "MZ",
	"NA", "NG", "NI", "NL", "NO", "NP", "NZ", "OM", "PA", "PE", "PG", "PH",
	"PK", "PL", "PR", "PS", "PT", "PY", "QA", "RE", "RO", "RS", "RU", "RW",
	"SA", "SD", "SE", "SG", "SI", "SK", "SN", "SO", "SV", "SY", "TG", "TH",
	"TJ", "TM", "TN", "TR", "TT", "TW", "TZ", "UA", "UG", "US", "UY", "UZ",
	"VE", "VN", "YE", "ZA", "ZM", "ZW",
}

func init() {
	for _, code := range studyCountryCodes {
		ccTLDToCountry[CCTLDFor(code)] = code
	}
}

// CCTLDFor returns the ccTLD (without dot) for an ISO country code.
func CCTLDFor(countryCode string) string {
	code := strings.ToUpper(countryCode)
	if tld, ok := ccTLDException[code]; ok {
		return tld
	}
	return strings.ToLower(code)
}

// CountryForCCTLD returns the ISO country code owning a ccTLD, or "" if the
// TLD is not a ccTLD of a studied country.
func CountryForCCTLD(tld string) string {
	return ccTLDToCountry[strings.ToLower(tld)]
}

// Extract returns the TLD (final DNS label, lowercased, no dot) of a
// domain, or "" for an empty/invalid name.
func Extract(domain string) string {
	d := strings.TrimSuffix(strings.ToLower(strings.TrimSpace(domain)), ".")
	if d == "" {
		return ""
	}
	idx := strings.LastIndexByte(d, '.')
	if idx == len(d)-1 {
		return ""
	}
	return d[idx+1:]
}

// Classify determines the kind of TLD from the perspective of the given
// country (ISO code of the CrUX list the site appears on).
func Classify(tld, country string) Kind {
	t := strings.ToLower(tld)
	if t == "com" {
		return Com
	}
	if owner := CountryForCCTLD(t); owner != "" {
		if owner == strings.ToUpper(country) {
			return LocalCC
		}
		return ExternalCC
	}
	return GlobalTLD
}

// InsularTo returns the country to which use of this TLD is considered
// insular: the ccTLD's country, or the U.S. for .com (per the paper's
// Figure 22 note), or "" for other gTLDs.
func InsularTo(tld string) string {
	t := strings.ToLower(tld)
	if t == "com" {
		return "US"
	}
	return CountryForCCTLD(t)
}
