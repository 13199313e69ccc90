// Package webgen synthesizes the "Microscape" test web site: a single
// HTML page of ~42 KB with 42 inline GIF images totaling ~125 KB, with the
// size histogram the paper reports (19 images under 1 KB, 7 between 1 and
// 2 KB, 6 between 2 and 3 KB, the rest larger, over half of all image
// bytes in one large image and two animations). It also implements the
// paper's two content-change analyses: replacing decorative images with
// HTML+CSS, and converting GIF→PNG / animated GIF→MNG.
package webgen

// Role classifies an image's visual function, which determines both how
// it is synthesized and whether CSS can replace it.
type Role int

// Image roles.
const (
	// RoleSpacer is an invisible layout image (CSS-replaceable: layout
	// properties make it unnecessary).
	RoleSpacer Role = iota
	// RoleBullet is a small list/nav symbol (CSS-replaceable: Unicode
	// glyph plus color).
	RoleBullet
	// RoleBanner is text rendered as an image (CSS-replaceable: font and
	// background properties — the paper's Figure 1).
	RoleBanner
	// RoleIcon is a small pictorial graphic (not replaceable).
	RoleIcon
	// RolePhoto is a large, high-entropy image (not replaceable).
	RolePhoto
	// RoleAnimation is an animated GIF (not replaceable; converts to MNG).
	RoleAnimation
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleSpacer:
		return "spacer"
	case RoleBullet:
		return "bullet"
	case RoleBanner:
		return "banner"
	case RoleIcon:
		return "icon"
	case RolePhoto:
		return "photo"
	case RoleAnimation:
		return "animation"
	}
	return "unknown"
}

// Replaceable reports whether HTML+CSS can substitute for the image.
func (r Role) Replaceable() bool {
	return r == RoleSpacer || r == RoleBullet || r == RoleBanner
}

// Spec is one image to synthesize, with its target encoded GIF size.
type Spec struct {
	Name   string
	Role   Role
	Target int // bytes of encoded GIF to aim for
	// Text is the label a banner renders (used for the CSS replacement).
	Text string
}

// MicroscapeSpecs reproduces the paper's image population: 40 static GIFs
// totaling 103,299 bytes target (19 <1 KB, 7 in 1–2 KB, 6 in 2–3 KB,
// 8 larger including one 40 KB image) and 2 animations totaling 24,988
// bytes. Including "solutions.gif", the paper's Figure 1 banner at 682
// bytes.
func MicroscapeSpecs() []Spec {
	specs := []Spec{
		// 19 images under 1 KB.
		{Name: "dot_clear.gif", Role: RoleSpacer, Target: 70},
		{Name: "spacer2.gif", Role: RoleSpacer, Target: 120},
		{Name: "bullet_sm.gif", Role: RoleBullet, Target: 180},
		{Name: "bullet_red.gif", Role: RoleBullet, Target: 250},
		{Name: "bullet_blue.gif", Role: RoleBullet, Target: 300},
		{Name: "arrow_rt.gif", Role: RoleBullet, Target: 340},
		{Name: "arrow_dn.gif", Role: RoleBullet, Target: 380},
		{Name: "new_flag.gif", Role: RoleBullet, Target: 420},
		{Name: "hot_flag.gif", Role: RoleBullet, Target: 460},
		{Name: "rule_thin.gif", Role: RoleSpacer, Target: 500},
		{Name: "nav_home.gif", Role: RoleBanner, Target: 540, Text: "home"},
		{Name: "nav_search.gif", Role: RoleBanner, Target: 580, Text: "search"},
		{Name: "nav_help.gif", Role: RoleBanner, Target: 620, Text: "help"},
		{Name: "nav_news.gif", Role: RoleBanner, Target: 660, Text: "news"},
		{Name: "solutions.gif", Role: RoleBanner, Target: 682, Text: "solutions"},
		{Name: "products.gif", Role: RoleBanner, Target: 750, Text: "products"},
		{Name: "download.gif", Role: RoleBanner, Target: 800, Text: "download"},
		{Name: "support.gif", Role: RoleBanner, Target: 850, Text: "support"},
		{Name: "partners.gif", Role: RoleBanner, Target: 918, Text: "partners"},
		// 7 images between 1 and 2 KB.
		{Name: "toolbar_l.gif", Role: RoleBanner, Target: 1100, Text: "developer zone"},
		{Name: "toolbar_r.gif", Role: RoleBanner, Target: 1250, Text: "site map"},
		{Name: "icon_doc.gif", Role: RoleIcon, Target: 1400},
		{Name: "icon_folder.gif", Role: RoleIcon, Target: 1500},
		{Name: "icon_mail.gif", Role: RoleIcon, Target: 1600},
		{Name: "icon_globe.gif", Role: RoleIcon, Target: 1750},
		{Name: "icon_lock.gif", Role: RoleIcon, Target: 1900},
		// 6 images between 2 and 3 KB.
		{Name: "tab_products.gif", Role: RoleBanner, Target: 2100, Text: "all products"},
		{Name: "tab_services.gif", Role: RoleBanner, Target: 2300, Text: "services and consulting"},
		{Name: "logo_small.gif", Role: RoleIcon, Target: 2500},
		{Name: "award.gif", Role: RoleIcon, Target: 2600},
		{Name: "screenshot_sm.gif", Role: RoleIcon, Target: 2800},
		{Name: "chart_q2.gif", Role: RoleIcon, Target: 2950},
		// 8 larger images, one dominating at 40 KB.
		{Name: "masthead_l.gif", Role: RoleIcon, Target: 3200},
		{Name: "masthead_r.gif", Role: RoleIcon, Target: 3400},
		{Name: "promo_box.gif", Role: RoleIcon, Target: 3600},
		{Name: "photo_team.gif", Role: RolePhoto, Target: 3800},
		{Name: "photo_campus.gif", Role: RolePhoto, Target: 4000},
		{Name: "map_world.gif", Role: RolePhoto, Target: 4300},
		{Name: "collage.gif", Role: RolePhoto, Target: 4869},
		{Name: "splash_main.gif", Role: RolePhoto, Target: 40960},
		// 2 animations totaling 24,988 bytes.
		{Name: "anim_banner.gif", Role: RoleAnimation, Target: 14000},
		{Name: "anim_logo.gif", Role: RoleAnimation, Target: 10988},
	}
	return specs
}

// Paper-reported sizes the synthesis aims for.
const (
	// PaperHTMLBytes is the paper's HTML page size ("typical HTML
	// totaling 42KB").
	PaperHTMLBytes = 42000
	// PaperBannerGIFBytes is Figure 1's "solutions" GIF size.
	PaperBannerGIFBytes = 682
)
