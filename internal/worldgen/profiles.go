package worldgen

import "github.com/webdep/webdep/internal/countries"

// CAInfo describes one certificate authority in the synthetic WebPKI.
type CAInfo struct {
	Name    string
	Country string
	Class   string // ground-truth hint: L-GP, M-GP, L-RP, S-RP, XS-RP
	weight  float64
}

// caUniverse is the paper's 45-CA ecosystem (Table 3: 7 large global, 2
// medium global, 11 large regional, 10 small regional, 15 extra-small
// regional). The seven L-GP CAs account for ~98% of websites.
var caUniverse = []CAInfo{
	// Large global: the seven that dominate the web.
	{"Let's Encrypt", "US", "L-GP", 0.33},
	{"DigiCert", "US", "L-GP", 0.24},
	{"Sectigo", "US", "L-GP", 0.14},
	{"Google", "US", "L-GP", 0.10},
	{"Amazon", "US", "L-GP", 0.08},
	{"GlobalSign", "BE", "L-GP", 0.05},
	{"GoDaddy", "US", "L-GP", 0.04},
	// Medium global.
	{"Entrust", "CA", "M-GP", 0.006},
	{"IdenTrust", "US", "M-GP", 0.004},
	// Large regional.
	{"Asseco", "PL", "L-RP", 0.002},
	{"TWCA", "TW", "L-RP", 0.002},
	{"SECOM", "JP", "L-RP", 0.002},
	{"JPRS", "JP", "L-RP", 0.001},
	{"Actalis", "IT", "L-RP", 0.001},
	{"Buypass", "NO", "L-RP", 0.001},
	{"HARICA", "GR", "L-RP", 0.001},
	{"Certigna", "FR", "L-RP", 0.001},
	{"D-TRUST", "DE", "L-RP", 0.001},
	{"e-tugra", "TR", "L-RP", 0.001},
	{"Chunghwa Telecom", "TW", "L-RP", 0.001},
	// Small regional.
	{"SSL.com", "US", "S-RP", 0.0006},
	{"Izenpe", "ES", "S-RP", 0.0005},
	{"ACCV", "ES", "S-RP", 0.0004},
	{"KTrust", "KR", "S-RP", 0.0004},
	{"NAVER Cloud Trust", "KR", "S-RP", 0.0004},
	{"MSC Trustgate", "MY", "S-RP", 0.0004},
	{"emSign", "IN", "S-RP", 0.0004},
	{"Camerfirma", "ES", "S-RP", 0.0003},
	{"Firmaprofesional", "ES", "S-RP", 0.0003},
	{"OISTE", "CH", "S-RP", 0.0003},
	// Extra-small regional.
	{"TrustCor", "PA", "XS-RP", 0.0002},
	{"ANF AC", "ES", "XS-RP", 0.0002},
	{"Certinomis", "FR", "XS-RP", 0.0002},
	{"KIR", "PL", "XS-RP", 0.0002},
	{"Disig", "SK", "XS-RP", 0.0002},
	{"PostSignum", "CZ", "XS-RP", 0.0002},
	{"MicroSec", "HU", "XS-RP", 0.0002},
	{"Halcom", "SI", "XS-RP", 0.0002},
	{"AC Raiz", "AR", "XS-RP", 0.0002},
	{"Serpro", "BR", "XS-RP", 0.0002},
	{"Sonera", "FI", "XS-RP", 0.0001},
	{"Telia", "SE", "XS-RP", 0.0001},
	{"SwissSign", "CH", "XS-RP", 0.0001},
	{"Netrust", "SG", "XS-RP", 0.0001},
	{"GPKI Japan", "JP", "XS-RP", 0.0001},
}

// caCountryBoost elevates specific CAs in specific countries, encoding the
// paper's Section 7.2 observations (Asseco used in Poland, Iran, and
// Afghanistan; Taiwan and Japan insular via local CAs; Let's Encrypt heavy
// in Eastern Europe).
var caCountryBoost = map[string]map[string]float64{
	"PL": {"Asseco": 90, "KIR": 8},
	"IR": {"Asseco": 95},
	"AF": {"Asseco": 25},
	"TW": {"TWCA": 60, "Chunghwa Telecom": 35},
	"JP": {"SECOM": 45, "JPRS": 30, "GPKI Japan": 5},
	"KR": {"KTrust": 25, "NAVER Cloud Trust": 20},
	"ES": {"Izenpe": 6, "ACCV": 5, "Camerfirma": 4, "Firmaprofesional": 3},
	"GR": {"HARICA": 25},
	"NO": {"Buypass": 30},
	"IT": {"Actalis": 25},
	"FR": {"Certigna": 10, "Certinomis": 3},
	"DE": {"D-TRUST": 12},
	"TR": {"e-tugra": 20},
	"SK": {"Disig": 10},
	"CZ": {"PostSignum": 10},
	"HU": {"MicroSec": 8},
	"SI": {"Halcom": 8},
	"AR": {"AC Raiz": 6},
	"BR": {"Serpro": 5},
	"FI": {"Sonera": 5},
	"SE": {"Telia": 5},
	"CH": {"SwissSign": 8, "OISTE": 4},
	"SG": {"Netrust": 5},
	"IN": {"emSign": 10},
	"MY": {"MSC Trustgate": 12},
	"PA": {"TrustCor": 4},
}

// leBoostContinent raises Let's Encrypt in European countries (the paper:
// "Let's Encrypt is heavily used in European countries, especially Eastern
// European countries that use regional hosting providers").
func leBoost(c countries.Country) float64 {
	switch {
	case c.Region == "Eastern Europe":
		return 1.9
	case c.Continent == "EU":
		return 1.4
	default:
		return 1
	}
}

// globalTLDs are the non-com gTLDs in the synthetic TLD universe.
var globalTLDs = []Weighted{
	{"org", 0.30}, {"net", 0.25}, {"io", 0.12}, {"info", 0.08},
	{"xyz", 0.06}, {"online", 0.05}, {"app", 0.05}, {"dev", 0.04},
	{"site", 0.03}, {"shop", 0.02},
}

// tldForeignDeps encodes Appendix B's external-ccTLD patterns: CIS on .ru,
// francophone countries on .fr, German-speaking countries on .de.
var tldForeignDeps = map[string]map[string]float64{
	"TM": {"ru": 0.20}, "TJ": {"ru": 0.18}, "KG": {"ru": 0.22},
	"KZ": {"ru": 0.16}, "BY": {"ru": 0.17}, "UZ": {"ru": 0.12},
	"MD": {"ru": 0.12}, "AM": {"ru": 0.10}, "GE": {"ru": 0.06}, "AZ": {"ru": 0.08},
	"BF": {"fr": 0.14}, "BJ": {"fr": 0.13}, "CD": {"fr": 0.10},
	"CI": {"fr": 0.13}, "CM": {"fr": 0.10}, "DZ": {"fr": 0.08},
	"GP": {"fr": 0.22}, "HT": {"fr": 0.10}, "MG": {"fr": 0.10},
	"ML": {"fr": 0.13}, "MQ": {"fr": 0.22}, "RE": {"fr": 0.22},
	"SN": {"fr": 0.12}, "TG": {"fr": 0.12},
	"AT": {"de": 0.14}, "LU": {"de": 0.08}, "CH": {"de": 0.07},
	"SK": {"cz": 0.08},
}

// hostingForeignDeps encodes Section 5.3.3's cross-border hosting
// dependencies as (provider home country → share of sites).
var hostingForeignDeps = map[string]map[string]float64{
	// CIS reliance on Russian providers.
	"TM": {"RU": 0.33}, "TJ": {"RU": 0.23}, "KG": {"RU": 0.22},
	"KZ": {"RU": 0.21}, "BY": {"RU": 0.18}, "UZ": {"RU": 0.12},
	"AM": {"RU": 0.09}, "MD": {"RU": 0.08}, "GE": {"RU": 0.06}, "AZ": {"RU": 0.05},
	// Post-Soviet states that do NOT rely on Russia keep tiny shares.
	"UA": {"RU": 0.02}, "LT": {"RU": 0.03}, "EE": {"RU": 0.05},
	// French administrative regions and former colonies.
	"RE": {"FR": 0.36}, "GP": {"FR": 0.34}, "MQ": {"FR": 0.35},
	"BF": {"FR": 0.21}, "CI": {"FR": 0.18}, "ML": {"FR": 0.18},
	"SN": {"FR": 0.15}, "TG": {"FR": 0.14}, "BJ": {"FR": 0.14},
	"MG": {"FR": 0.12}, "CM": {"FR": 0.10}, "DZ": {"FR": 0.10},
	"HT": {"FR": 0.12}, "TN": {"FR": 0.10}, "GA": {"FR": 0.10}, "CD": {"FR": 0.08},
	// Slovakia on Czech providers; Czechia itself stays insular.
	"SK": {"CZ": 0.26},
	// Austria on German regional providers (shared language; the paper
	// reports ~3% beyond the global Hetzner footprint).
	"AT": {"DE": 0.03}, "CH": {"DE": 0.02}, "LU": {"DE": 0.02},
	// Afghanistan on Iranian providers (shared Persian language).
	"AF": {"IR": 0.20},
}

// regionalShare returns the fraction of a country's sites on regional
// (domestic + foreign-regional) providers. The affine term in 𝒮 bakes in
// the paper's ρ≈−0.72 correlation between regional-provider use and lower
// centralization; overrides capture countries the case studies single out.
func regionalShare(c countries.Country) float64 {
	if v, ok := regionalShareOverride[c.Code]; ok {
		return v
	}
	s := c.PaperScore[countries.Hosting]
	base := 0.62 - 1.55*s
	// Continental adjustments: Europe and Eastern Asia lean regional,
	// Africa lacks in-country providers, Oceania/Americas lean global.
	switch {
	case c.Region == "Eastern Europe":
		base += 0.10
	case c.Continent == "EU":
		base += 0.05
	case c.Region == "Eastern Asia":
		base += 0.12
	case c.Continent == "AF":
		base -= 0.12
	case c.Continent == "NA", c.Continent == "OC":
		base -= 0.05
	}
	if base < 0.06 {
		base = 0.06
	}
	if base > 0.72 {
		base = 0.72
	}
	return base
}

var regionalShareOverride = map[string]float64{
	"IR": 0.68, // paper: 68% regional, least centralized
	"TT": 0.12, // paper: 12% regional, Caribbean minimum
	"CZ": 0.60,
	"RU": 0.62,
	"JP": 0.55,
	"KR": 0.52,
	"US": 0.35,
	"TH": 0.10,
	"ID": 0.10,
}

// domesticFraction is how much of a country's regional-provider block is
// in-country. The paper's insularity findings drive the shape: Europe and
// Eastern Asia run their own providers, Africa has almost none in-country
// (average insularity 3%), and the case-study countries get their measured
// values.
func domesticFraction(c countries.Country) float64 {
	if v, ok := domesticFractionOverride[c.Code]; ok {
		return v
	}
	switch {
	case c.Region == "Eastern Asia":
		return 0.80
	case c.Continent == "EU":
		return 0.70
	case c.Continent == "AF":
		return 0.08
	case c.Continent == "NA":
		return 0.40
	case c.Continent == "SA":
		return 0.40
	case c.Continent == "OC":
		return 0.35
	default: // rest of Asia
		return 0.40
	}
}

var domesticFractionOverride = map[string]float64{
	"IR": 0.95, // 64.8% insular of 68% regional
	"CZ": 0.88, // 54.5% insular
	"RU": 0.82, // 51.1% insular
	"US": 0.95,
	"JP": 0.85,
	"KR": 0.80,
	"TM": 0.08, // only 4% of sites in-country despite low global use
	"SK": 0.40, // leans on Czech providers instead
}

// regionalSplit divides a country's regional block into the in-country
// share, the explicitly modeled foreign dependencies, and a remainder
// served by neighboring countries' regional providers.
func regionalSplit(c countries.Country) (domestic float64, neighbor float64) {
	total := regionalShare(c)
	var foreign float64
	for _, share := range hostingForeignDeps[c.Code] {
		foreign += share
	}
	available := total - foreign
	if available < 0.02 {
		return 0.02, 0
	}
	domestic = available * domesticFraction(c)
	if domestic < 0.02 {
		domestic = 0.02
	}
	neighbor = available - domestic
	if neighbor < 0.01 {
		neighbor = 0
	}
	return domestic, neighbor
}

// domesticTopPin pins the leading domestic provider's share in countries
// where the paper highlights a single dominant large regional provider
// rivaling the global players (§5.2: SuperHosting.BG in Bulgaria and UAB
// in Lithuania at 22%, "never outranking Cloudflare but a close second").
var domesticTopPin = map[string]float64{
	"BG": 0.22,
	"LT": 0.22,
}

// neighborDonors lists which countries' regional providers absorb the
// neighbor share, per continent (the paper: Africa leans on France and the
// U.S./Europe; Latin America on Brazil; Asia on Singapore/India/Hong Kong).
var neighborDonors = map[string][]string{
	"AF": {"FR", "US", "GB"},
	"AS": {"SG", "IN", "HK"},
	"SA": {"BR", "AR"},
	"NA": {"US", "CA"},
	"OC": {"AU", "US"},
	"EU": {"DE", "NL", "CZ"},
}

// primaryLanguage maps countries to the dominant website language used by
// the language-labeling step. Countries absent from the map default to
// English.
var primaryLanguage = map[string]string{
	"FR": "fr", "BE": "fr", "SN": "fr", "CI": "fr", "ML": "fr", "BF": "fr",
	"BJ": "fr", "TG": "fr", "GA": "fr", "CD": "fr", "CM": "fr", "MG": "fr",
	"RE": "fr", "GP": "fr", "MQ": "fr", "HT": "fr", "LU": "fr", "CH": "de",
	"DE": "de", "AT": "de",
	"ES": "es", "MX": "es", "AR": "es", "CO": "es", "CL": "es", "PE": "es",
	"VE": "es", "EC": "es", "BO": "es", "PY": "es", "UY": "es", "CR": "es",
	"PA": "es", "GT": "es", "HN": "es", "NI": "es", "SV": "es", "DO": "es",
	"CU": "es", "PR": "es",
	"BR": "pt", "PT": "pt", "AO": "pt", "MZ": "pt",
	"RU": "ru", "BY": "ru", "KZ": "ru", "KG": "ru", "TJ": "ru", "TM": "ru",
	"UZ": "ru", "MD": "ru", "AM": "ru", "GE": "ru", "AZ": "ru",
	"UA": "uk",
	"CZ": "cs", "SK": "sk",
	"IR": "fa", "AF": "fa",
	"SA": "ar", "AE": "ar", "EG": "ar", "IQ": "ar", "SY": "ar", "JO": "ar",
	"LB": "ar", "KW": "ar", "QA": "ar", "BH": "ar", "OM": "ar", "YE": "ar",
	"LY": "ar", "DZ": "ar", "MA": "ar", "TN": "ar", "SD": "ar", "PS": "ar", "SO": "ar",
	"TH": "th", "GR": "el", "IL": "he", "KR": "ko", "JP": "ja",
	"HK": "zh", "TW": "zh", "MO": "zh", "SG": "zh",
	"IN": "hi", "NP": "hi",
}

// afghanPersianShare is the paper's measured fraction of Persian-language
// sites on Afghanistan's toplist (31.4%), of which 60.8% are hosted in
// Iran.
const (
	afghanPersianShare       = 0.314
	afghanPersianIranHosting = 0.608
)

// localCCTLDWeight tunes how strongly a country uses its own ccTLD in the
// TLD base profile (before calibration). Eastern Europe and East Asia lean
// on local ccTLDs; the Americas lean on .com.
func localCCTLDWeight(c countries.Country) float64 {
	switch {
	case c.Code == "US":
		return 0.04
	case c.Region == "Eastern Europe":
		return 0.45
	case c.Continent == "EU":
		return 0.38
	case c.Region == "Eastern Asia":
		return 0.35
	case c.Continent == "NA":
		return 0.08
	case c.Continent == "SA":
		return 0.30
	default:
		return 0.18
	}
}

// comWeight is the .com base weight per country.
func comWeight(c countries.Country) float64 {
	switch {
	case c.Code == "US" || c.Code == "PR" || c.Code == "TT" || c.Code == "JM" || c.Code == "CA":
		return 0.72
	case c.Continent == "NA":
		return 0.55
	case c.Region == "Eastern Europe":
		return 0.30
	case c.Continent == "EU":
		return 0.38
	default:
		return 0.45
	}
}
