import javax.jws.WebMethod;
import javax.jws.WebService;
import javax.xml.bind.JAXBContext;
import javax.xml.bind.Marshaller;
import javax.xml.bind.annotation.XmlRootElement;

@XmlRootElement
class Quote {
    double price;
}

@WebService
class K22 {
    @WebMethod
    Quote quoteFor(String symbol) {
        return new Quote();
    }

    Marshaller marshaller() throws Exception {
        JAXBContext ctx = JAXBContext.newInstance(Quote.class);
        return ctx.createMarshaller();
    }
}
