package httpclient

import "repro/internal/httpmsg"

// Style selects the request-header profile. Request verbosity matters:
// the paper's libwww robot sent ~190-byte requests while the product
// browsers of Tables 10 and 11 sent considerably more.
type Style int

// Request header styles.
const (
	// StyleRobot11 is the tuned libwww 5.1 robot: "very careful not to
	// generate unnecessary headers", ~190 bytes with validators.
	StyleRobot11 Style = iota
	// StyleRobot10 is the old libwww 4.1D robot with the era's verbose
	// Accept lists.
	StyleRobot10
	// StyleNetscape mimics Netscape Communicator 4.0b5.
	StyleNetscape
	// StyleMSIE mimics Microsoft Internet Explorer 4.0b1.
	StyleMSIE
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleRobot11:
		return "libwww/5.1"
	case StyleRobot10:
		return "libwww/4.1D"
	case StyleNetscape:
		return "Netscape"
	case StyleMSIE:
		return "MSIE"
	}
	return "unknown"
}

// buildRequest fills req with a request in the given style, reusing its
// field array, and returns it.
func buildRequest(req *httpmsg.Request, style Style, method, target, host, proto string) *httpmsg.Request {
	req.Header.Reset()
	*req = httpmsg.Request{Method: method, Target: target, Proto: proto, Header: req.Header}
	h := &req.Header
	switch style {
	case StyleRobot11:
		h.Add("Host", host)
		h.Add("Accept", "*/*")
		h.Add("User-Agent", "libwww-robot/5.1")
	case StyleRobot10:
		h.Add("Accept", "text/html")
		h.Add("Accept", "image/gif; q=1.0, image/x-xbitmap; q=0.8, image/jpeg; q=0.8")
		h.Add("Accept", "application/postscript, application/x-dvi, message/rfc822")
		h.Add("Accept", "video/mpeg, audio/basic, text/plain, */*; q=0.3")
		h.Add("Accept-Language", "en, fr; q=0.5, de; q=0.5")
		h.Add("User-Agent", "W3CCommandLine/4.1D libwww/4.1D")
		h.Add("From", "webmaster@w3.org")
	case StyleNetscape:
		h.Add("Connection", "Keep-Alive")
		h.Add("User-Agent", "Mozilla/4.0b5 [en] (WinNT; I)")
		h.Add("Host", host)
		h.Add("Accept", "image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, image/png, */*")
		h.Add("Accept-Language", "en")
		h.Add("Accept-Charset", "iso-8859-1,*,utf-8")
	case StyleMSIE:
		h.Add("Accept", "image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, */*")
		h.Add("Accept-Language", "en-us")
		h.Add("UA-pixels", "1280x1024")
		h.Add("UA-color", "color8")
		h.Add("UA-OS", "Windows NT")
		h.Add("UA-CPU", "x86")
		h.Add("User-Agent", "Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)")
		h.Add("Host", host)
		h.Add("Connection", "Keep-Alive")
	}
	return req
}
